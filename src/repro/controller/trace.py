"""Control-plane trace recording (every message, timestamped).

Wraps a network's channels so every controller<->switch message is logged
with its simulated send time and direction.  Traces explain *why* a
transient violation happened (which FlowMod landed before which); attach
one to a scenario's network (``examples/dependency_analysis.py`` does).
Export is JSON-lines friendly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.openflow.messages import OpenFlowMessage, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlab.network import Network


@dataclass(frozen=True)
class TraceEntry:
    """One recorded control-plane message."""

    time_ms: float
    dpid: Any
    direction: str  # "to-switch" | "to-controller"
    msg_type: str
    xid: int
    summary: str


@dataclass
class ControlPlaneTrace:
    """Recorder attached to a network's channels."""

    entries: list[TraceEntry] = field(default_factory=list)
    _attached: bool = False

    def attach(self, network: "Network") -> "ControlPlaneTrace":
        """Start recording every channel of ``network`` (idempotent)."""
        if self._attached:
            return self
        self._attached = True
        for dpid, channel in network.channels.items():
            self._wrap(network, dpid, channel)
        return self

    def _wrap(self, network: "Network", dpid: Any, channel) -> None:
        # The channel owns its wrappers, so they reach it weakly and the
        # network not at all: a traced network dies by reference count.
        sim, own = network.sim, weakref.ref(channel)
        send_to_switch = type(channel).to_switch
        send_to_controller = type(channel).to_controller

        def to_switch(message: Any) -> float:
            self._record(sim.now, dpid, "to-switch", message)
            return send_to_switch(own(), message)

        def to_controller(message: Any) -> float:
            self._record(sim.now, dpid, "to-controller", message)
            return send_to_controller(own(), message)

        channel.to_switch = to_switch
        channel.to_controller = to_controller

    def _record(self, now: float, dpid: Any, direction: str, message: Any) -> None:
        if isinstance(message, OpenFlowMessage):
            msg_type, xid = message.type_name(), message.xid
        else:  # pragma: no cover - channels carry only OF messages here
            msg_type, xid = type(message).__name__, 0
        self.entries.append(
            TraceEntry(
                time_ms=now,
                dpid=dpid,
                direction=direction,
                msg_type=msg_type,
                xid=xid,
                summary=summarize(message),
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def of_type(self, msg_type: str) -> list[TraceEntry]:
        return [e for e in self.entries if e.msg_type == msg_type.upper()]

    def for_switch(self, dpid: Any) -> list[TraceEntry]:
        return [e for e in self.entries if e.dpid == dpid]

    def flow_mods_before_barrier(self, dpid: Any) -> bool:
        """Did every FLOW_MOD to ``dpid`` precede its next BARRIER_REQUEST?

        The round FSM's invariant, checkable from the trace alone.
        """
        pending = 0
        for entry in self.for_switch(dpid):
            if entry.direction != "to-switch":
                continue
            if entry.msg_type == "FLOW_MOD":
                pending += 1
            elif entry.msg_type == "BARRIER_REQUEST":
                if pending == 0:
                    return False  # a barrier fencing nothing
                pending = 0
        return True

    def rounds_observed(self, dpid: Any) -> int:
        """Number of barrier fences this switch saw."""
        return sum(
            1
            for entry in self.for_switch(dpid)
            if entry.direction == "to-switch"
            and entry.msg_type == "BARRIER_REQUEST"
        )
