"""Reimplementation of Ryu's stock ``ofctl_rest.py`` app (the baseline).

This is the app the paper *starts from*: it exposes flow-entry add/modify/
delete operations that fire FlowMods at switches immediately -- one round,
no barriers, no ordering.  Under an asynchronous control channel that is
exactly the transiently insecure behaviour the demo showcases (E4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import BadRequestError, ControllerError, OpenFlowError
from repro.controller.app import RyuLikeApp
from repro.controller.datapath_handle import Datapath
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowmod import flow_entry
from repro.openflow.stats import FlowStatsReply, FlowStatsRequest


@dataclass
class StatsFuture:
    """Resolves when the switch's stats reply arrives (post ``sim.run``)."""

    dpid: int
    xid: int
    reply: FlowStatsReply | None = None

    @property
    def done(self) -> bool:
        return self.reply is not None

    def result(self) -> FlowStatsReply:
        if self.reply is None:
            raise ControllerError(
                f"stats for dpid {self.dpid} not yet answered; run the simulator"
            )
        return self.reply


@dataclass
class OfctlLog:
    flow_mods_sent: int = 0
    stats_requested: int = 0
    errors_seen: list = field(default_factory=list)


class OfctlRestApp(RyuLikeApp):
    """One-shot flow programming, faithful to the stock app's semantics."""

    name = "ofctl_rest"

    def __init__(self) -> None:
        super().__init__()
        self.log = OfctlLog()
        self._stats_futures: dict[int, StatsFuture] = {}

    # ------------------------------------------------------------------
    # the ofctl operations (REST handlers call these)
    # ------------------------------------------------------------------
    def flowentry_add(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /stats/flowentry/add"""
        return self._flowentry(body, FlowModCommand.ADD)

    def flowentry_modify(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /stats/flowentry/modify"""
        return self._flowentry(body, FlowModCommand.MODIFY)

    def flowentry_modify_strict(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /stats/flowentry/modify_strict"""
        return self._flowentry(body, FlowModCommand.MODIFY_STRICT)

    def flowentry_delete(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /stats/flowentry/delete"""
        return self._flowentry(body, FlowModCommand.DELETE)

    def flowentry_delete_strict(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /stats/flowentry/delete_strict"""
        return self._flowentry(body, FlowModCommand.DELETE_STRICT)

    def _flowentry(self, body: Any, command: FlowModCommand) -> dict[str, Any]:
        if self.controller is None:
            raise ControllerError("app not registered with a controller")
        try:
            dpid, mod = flow_entry(body, command)
        except OpenFlowError as exc:
            raise BadRequestError(f"bad flow entry: {exc}") from None
        datapath = self.controller.datapath(dpid)
        xid = datapath.send_msg(mod)
        self.log.flow_mods_sent += 1
        return {"dpid": dpid, "xid": xid, "command": command.name}

    def flow_stats(self, dpid: int) -> StatsFuture:
        """GET /stats/flow/<dpid> (resolves after the simulator runs)."""
        if self.controller is None:
            raise ControllerError("app not registered with a controller")
        datapath = self.controller.datapath(dpid)
        request = FlowStatsRequest()
        xid = datapath.send_msg(request)
        future = StatsFuture(dpid=dpid, xid=xid)
        self._stats_futures[xid] = future
        self.log.stats_requested += 1
        return future

    def switches(self) -> list[int]:
        """GET /stats/switches"""
        if self.controller is None:
            raise ControllerError("app not registered with a controller")
        return self.controller.connected_dpids

    # ------------------------------------------------------------------
    # controller hooks
    # ------------------------------------------------------------------
    def on_flow_stats(self, datapath: Datapath, message: FlowStatsReply) -> None:
        future = self._stats_futures.pop(message.xid, None)
        if future is not None:
            future.reply = message

    def on_error(self, datapath: Datapath, message: Any) -> None:
        self.log.errors_seen.append((datapath.dpid, message))
