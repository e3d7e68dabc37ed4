"""The simulated OpenFlow switch (stands in for OVS).

A :class:`SwitchSim` is bound to a control channel and a shared simulator.
Control messages are processed **in arrival order, one at a time** -- each
FlowMod occupies the switch for a sampled install latency -- which yields
the OpenFlow barrier contract for free: a BarrierRequest's reply is only
sent once every earlier message has finished applying.  That contract is
exactly what the paper's round FSM builds on.

Dataplane packets are processed by the flow-table pipeline; the hosting
network (``repro.netlab``) wires ``on_output`` to link delivery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SwitchError, TableFullError
from repro.openflow.constants import (
    ErrorType,
    FlowModFailedCode,
    FlowModFlags,
    FlowRemovedReason,
    MsgType,
    Port,
)
from repro.openflow.flowmod import FlowMod
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowRemoved,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
)
from repro.openflow.stats import FlowStatsEntry, FlowStatsReply, FlowStatsRequest
from repro.openflow.actions import ApplyActions, OutputAction
from repro.channel.base import ControlChannel
from repro.dataplane.packets import Packet
from repro.sim.events import ScheduledEvent
from repro.sim.simulator import Simulator
from repro.switch.flow_table import FlowEntry, FlowTable
from repro.switch.latency import OVS_PROFILE, SwitchTimingProfile
from repro.switch.pipeline import Pipeline, PipelineResult

#: Flow tables per switch, and entries per table.
N_TABLES = 4
TABLE_CAPACITY = 10_000


@dataclass
class SwitchLog:
    """Operational counters exposed to the metrics layer."""

    flow_mods_applied: int = 0
    flow_mods_failed: int = 0
    barriers_answered: int = 0
    packets_forwarded: int = 0
    packets_dropped: int = 0
    packets_punted: int = 0
    busy_time_ms: float = 0.0


class SwitchSim:
    """One simulated OpenFlow 1.3 switch."""

    def __init__(
        self,
        sim: Simulator,
        dpid: int,
        channel: ControlChannel,
        timing: SwitchTimingProfile = OVS_PROFILE,
        rng: random.Random | None = None,
        miss_behavior: str = "drop",
    ) -> None:
        self.sim = sim
        self.dpid = dpid
        self.channel = channel
        self.timing = timing
        self.rng = rng if rng is not None else random.Random(dpid)
        self.tables = [FlowTable(table_id=i, capacity=TABLE_CAPACITY) for i in range(N_TABLES)]
        self.pipeline = Pipeline(self.tables, miss_behavior=miss_behavior)
        self.log = SwitchLog()
        self.connected = False
        #: called as ``on_output(switch, packet, out_port, now)``
        self.on_output: Callable[[SwitchSim, Packet, int, float], None] | None = None
        self._busy_until = 0.0
        #: the one armed timeout-expiry event (None: no entry has a timeout)
        self._expiry: ScheduledEvent | None = None
        channel.bind_switch(self.on_control_message)

    # ------------------------------------------------------------------
    # control plane: serialized message processing
    # ------------------------------------------------------------------
    def on_control_message(self, message: OpenFlowMessage) -> None:
        """Channel delivery callback: queue the message for processing."""
        delay = self._processing_delay(message)
        start = max(self.sim.now, self._busy_until)
        done = start + delay
        self.log.busy_time_ms += done - start
        self._busy_until = done
        self.sim.schedule_at(done, self._apply_message, message)

    def _processing_delay(self, message: OpenFlowMessage) -> float:
        if isinstance(message, FlowMod):
            return max(0.0, self.timing.flowmod_install.sample(self.rng))
        if isinstance(message, BarrierRequest):
            return max(0.0, self.timing.barrier_processing.sample(self.rng))
        return max(0.0, self.timing.control_processing.sample(self.rng))

    def _apply_message(self, message: OpenFlowMessage) -> None:
        if isinstance(message, Hello):
            self._send(Hello(xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            self.connected = True
            self._send(
                FeaturesReply(
                    xid=message.xid,
                    datapath_id=self.dpid,
                    n_tables=len(self.tables),
                )
            )
        elif isinstance(message, EchoRequest):
            self._send(EchoReply(xid=message.xid, data=message.data))
        elif isinstance(message, FlowMod):
            self._apply_flow_mod(message)
        elif isinstance(message, BarrierRequest):
            self.log.barriers_answered += 1
            self._send(BarrierReply(xid=message.xid))
        elif isinstance(message, FlowStatsRequest):
            self._send(self._flow_stats(message))
        elif isinstance(message, PacketOut):
            self._apply_packet_out(message)
        else:
            self._send(
                ErrorMsg(
                    xid=message.xid,
                    err_type=int(ErrorType.BAD_REQUEST),
                    err_code=0,
                )
            )

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        if not 0 <= mod.table_id < len(self.tables):
            self._flow_mod_failed(mod, FlowModFailedCode.BAD_TABLE_ID)
            return
        table = self.tables[mod.table_id]
        try:
            removed = table.apply_flow_mod(mod, now=self.sim.now)
        except TableFullError:
            self._flow_mod_failed(mod, FlowModFailedCode.TABLE_FULL)
            return
        except SwitchError:
            self._flow_mod_failed(mod, FlowModFailedCode.OVERLAP)
            return
        self.log.flow_mods_applied += 1
        for entry in removed:
            self._flow_removed(entry, FlowRemovedReason.DELETE)
        if mod.is_add() and (mod.idle_timeout or mod.hard_timeout):
            self._arm_expiry()

    def _flow_removed(self, entry: FlowEntry, reason: FlowRemovedReason) -> None:
        if entry.flags & FlowModFlags.SEND_FLOW_REM:
            self._send(
                FlowRemoved(
                    cookie=entry.cookie,
                    priority=entry.priority,
                    reason=int(reason),
                    table_id=entry.table_id,
                    packet_count=entry.packet_count,
                    byte_count=entry.byte_count,
                    match=entry.match,
                )
            )

    def _arm_expiry(self) -> None:
        """Keep one simulator event at the earliest timeout deadline of
        any table (none while no entry carries a timeout)."""
        deadlines = [table.next_deadline() for table in self.tables]
        due = min((at for at in deadlines if at is not None), default=None)
        if due is None:
            return
        armed = self._expiry
        if armed is not None:
            if armed.time <= due:
                return
            self.sim.cancel(armed)
        self._expiry = self.sim.schedule_timer(max(due, self.sim.now), self._expire)

    def _expire(self) -> None:
        """The timeouts fired by now: remove those entries, tell the
        controller about the ones flagged ``SEND_FLOW_REM``, re-arm."""
        self._expiry = None
        for table in self.tables:
            for entry, reason in table.expire(self.sim.now):
                self._flow_removed(entry, reason)
        self._arm_expiry()

    def _flow_mod_failed(self, mod: FlowMod, code: FlowModFailedCode) -> None:
        self.log.flow_mods_failed += 1
        self._send(
            ErrorMsg(
                xid=mod.xid,
                err_type=int(ErrorType.FLOW_MOD_FAILED),
                err_code=int(code),
            )
        )

    def _flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        entries: list[FlowStatsEntry] = []
        tables = (
            self.tables
            if request.table_id == 0xFF
            else [self.tables[request.table_id]]
        )
        for table in tables:
            for entry in table:
                if not request.match.is_wildcard() and not request.match.subsumes(
                    entry.match
                ):
                    continue
                entries.append(
                    FlowStatsEntry(
                        table_id=table.table_id,
                        duration_sec=int(max(0.0, self.sim.now - entry.install_time) / 1000),
                        priority=entry.priority,
                        idle_timeout=int(entry.idle_timeout),
                        hard_timeout=int(entry.hard_timeout),
                        flags=entry.flags,
                        cookie=entry.cookie,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        match=entry.match,
                        instructions=entry.instructions,
                    )
                )
        return FlowStatsReply(xid=request.xid, entries=tuple(entries))

    def _apply_packet_out(self, message: PacketOut) -> None:
        packet = Packet.from_bytes(message.data) if message.data else Packet()
        for action in message.actions:
            if isinstance(action, OutputAction):
                self._emit(packet, action.port)

    def _send(self, message: OpenFlowMessage) -> None:
        self.channel.to_controller(message)

    # ------------------------------------------------------------------
    # dataplane
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet, in_port: int) -> PipelineResult:
        """Process a data packet arriving on ``in_port`` right now."""
        result = self.pipeline.process(packet, in_port, now=self.sim.now)
        if result.punt:
            self.log.packets_punted += 1
            self._send(
                PacketIn(
                    match=Match(in_port=in_port),
                    data=packet.to_bytes(),
                )
            )
        elif result.forwarded:
            self.log.packets_forwarded += 1
            for port in result.out_ports:
                if port == int(Port.IN_PORT):
                    port = in_port
                self._emit(result.packet, port)
        else:
            self.log.packets_dropped += 1
        return result

    def _emit(self, packet: Packet, out_port: int) -> None:
        if self.on_output is not None:
            self.on_output(self, packet, out_port, self.sim.now)

    # ------------------------------------------------------------------
    # introspection helpers (tests, REST layer)
    # ------------------------------------------------------------------
    def flow_count(self) -> int:
        return sum(len(table) for table in self.tables)

    def dump_flows(self, table_id: int | None = None) -> list[dict]:
        """ofctl-style dump of installed entries."""
        tables = self.tables if table_id is None else [self.tables[table_id]]
        return [
            {
                "table_id": table.table_id,
                "priority": entry.priority,
                "match": entry.match.to_ofctl(),
                "instructions": [ins.to_dict() for ins in entry.instructions],
                "packet_count": entry.packet_count,
            }
            for table in tables
            for entry in table
        ]

    @property
    def busy_until(self) -> float:
        """When the switch finishes its queued control messages."""
        return self._busy_until
