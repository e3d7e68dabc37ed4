"""Tests for the packet pipeline and the simulated switch."""

import pytest

from repro.channel.base import ControlChannel
from repro.dataplane.packets import Packet
from repro.errors import SwitchError
from repro.openflow.actions import (
    ApplyActions,
    GotoTable,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
    WriteActions,
)
from repro.openflow.constants import (
    ErrorType,
    FlowModFailedCode,
    FlowModFlags,
    FlowRemovedReason,
)
from repro.openflow.flowmod import FlowMod, add_flow, delete_flow
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
)
from repro.openflow.stats import FlowStatsReply, FlowStatsRequest
from repro.sim.simulator import Simulator
from repro.switch.datapath import SwitchSim
from repro.switch.flow_table import FlowTable
from repro.switch.latency import OVS_PROFILE, SwitchTimingProfile
from repro.switch.pipeline import Pipeline
from repro.channel.latency_models import Constant


class TestPipeline:
    def _single_table(self, *mods, miss="drop"):
        table = FlowTable()
        for mod in mods:
            table.apply_flow_mod(mod)
        return Pipeline([table], miss_behavior=miss)

    def test_forward(self):
        pipeline = self._single_table(add_flow(Match(in_port=1), out_port=7))
        result = pipeline.process(Packet(), in_port=1)
        assert result.forwarded and result.out_ports == [7]

    def test_miss_drop(self):
        pipeline = self._single_table(add_flow(Match(in_port=1), out_port=7))
        result = pipeline.process(Packet(), in_port=9)
        assert result.dropped and not result.punt

    def test_miss_punt(self):
        pipeline = self._single_table(
            add_flow(Match(in_port=1), out_port=7), miss="controller"
        )
        result = pipeline.process(Packet(), in_port=9)
        assert result.punt and not result.dropped

    def test_set_field_rewrites(self):
        mod = FlowMod(
            match=Match(in_port=1),
            instructions=(
                ApplyActions([
                    SetFieldAction("ipv4_dst", "10.9.9.9"),
                    OutputAction(port=2),
                ]),
            ),
        )
        pipeline = self._single_table(mod)
        result = pipeline.process(Packet(), in_port=1)
        assert result.packet.ipv4_dst == "10.9.9.9"

    def test_vlan_push_pop(self):
        push = FlowMod(
            match=Match(in_port=1),
            instructions=(
                ApplyActions([
                    PushVlanAction(),
                    SetFieldAction("vlan_vid", 2),
                    OutputAction(port=2),
                ]),
            ),
        )
        pipeline = self._single_table(push)
        result = pipeline.process(Packet(), in_port=1)
        assert result.packet.vlan_vid == 2
        pop = FlowMod(
            match=Match(in_port=1, vlan_vid=2),
            priority=100,
            instructions=(ApplyActions([PopVlanAction(), OutputAction(port=3)]),),
        )
        pipeline = self._single_table(pop)
        result = pipeline.process(result.packet, in_port=1)
        assert result.packet.vlan_vid is None
        assert result.out_ports == [3]

    def test_multi_table_goto(self):
        t0, t1 = FlowTable(table_id=0), FlowTable(table_id=1)
        t0.apply_flow_mod(
            FlowMod(match=Match(in_port=1), instructions=(GotoTable(table_id=1),))
        )
        t1.apply_flow_mod(add_flow(Match(), out_port=5, table_id=1))
        result = Pipeline([t0, t1]).process(Packet(), in_port=1)
        assert result.out_ports == [5]
        assert len(result.matched) == 2

    def test_goto_must_move_forward(self):
        t0, t1 = FlowTable(0), FlowTable(1)
        t1.apply_flow_mod(
            FlowMod(match=Match(), instructions=(GotoTable(table_id=1),))
        )
        t0.apply_flow_mod(
            FlowMod(match=Match(), instructions=(GotoTable(table_id=1),))
        )
        with pytest.raises(SwitchError, match="forward"):
            Pipeline([t0, t1]).process(Packet(), in_port=1)

    def test_write_actions_applied_at_end(self):
        t0, t1 = FlowTable(0), FlowTable(1)
        t0.apply_flow_mod(
            FlowMod(
                match=Match(),
                instructions=(
                    WriteActions([OutputAction(port=9)]),
                    GotoTable(table_id=1),
                ),
            )
        )
        t1.apply_flow_mod(FlowMod(match=Match(), instructions=()))
        result = Pipeline([t0, t1]).process(Packet(), in_port=1)
        assert result.out_ports == [9]

    def test_bad_miss_behavior(self):
        with pytest.raises(SwitchError):
            Pipeline([FlowTable()], miss_behavior="explode")


class _Harness:
    """A switch wired to a recording controller side."""

    def __init__(self, timing: SwitchTimingProfile = OVS_PROFILE):
        self.sim = Simulator()
        self.channel = ControlChannel(self.sim, latency=Constant(1.0))
        self.received: list = []
        self.channel.bind_controller(self.received.append)
        self.switch = SwitchSim(self.sim, dpid=42, channel=self.channel, timing=timing)

    def send(self, *messages):
        for message in messages:
            self.channel.to_switch(message)
        self.sim.run()


class TestSwitchControlPlane:
    def test_handshake(self):
        h = _Harness()
        h.send(Hello(xid=1), FeaturesRequest(xid=2))
        kinds = [type(m) for m in h.received]
        assert kinds == [Hello, FeaturesReply]
        assert h.received[1].datapath_id == 42
        assert h.switch.connected

    def test_echo(self):
        h = _Harness()
        h.send(EchoRequest(xid=3, data=b"hi"))
        assert isinstance(h.received[0], EchoReply)
        assert h.received[0].data == b"hi"

    def test_flowmod_then_barrier_ordering(self):
        h = _Harness()
        h.send(
            add_flow(Match(in_port=1), out_port=2).with_xid(1),
            BarrierRequest(xid=9),
        )
        # barrier reply must come after the flowmod was applied
        assert isinstance(h.received[-1], BarrierReply)
        assert h.received[-1].xid == 9
        assert h.switch.flow_count() == 1

    def test_barrier_waits_for_slow_installs(self):
        slow = SwitchTimingProfile(
            name="slow", flowmod_install=Constant(50.0),
            barrier_processing=Constant(0.1),
        )
        h = _Harness(timing=slow)
        h.channel.to_switch(add_flow(Match(in_port=1), out_port=2))
        h.channel.to_switch(BarrierRequest(xid=5))
        h.sim.run()
        reply = next(m for m in h.received if isinstance(m, BarrierReply))
        # 1ms channel + 50ms install + barrier processing + 1ms back
        assert h.sim.now >= 52.0
        assert reply.xid == 5

    def test_flowmod_error_reported(self):
        h = _Harness()
        bad = add_flow(Match(in_port=1), out_port=2)
        bad = FlowMod(match=bad.match, instructions=bad.instructions, table_id=99)
        h.send(bad.with_xid(7))
        error = h.received[0]
        assert isinstance(error, ErrorMsg)
        assert error.err_type == int(ErrorType.FLOW_MOD_FAILED)
        assert error.err_code == int(FlowModFailedCode.BAD_TABLE_ID)
        assert error.xid == 7
        assert h.switch.log.flow_mods_failed == 1

    def test_table_full_error(self):
        h = _Harness()
        h.switch.tables[0].capacity = 1
        h.send(
            add_flow(Match(in_port=1), out_port=2),
            add_flow(Match(in_port=2), out_port=2),
        )
        error = next(m for m in h.received if isinstance(m, ErrorMsg))
        assert error.err_code == int(FlowModFailedCode.TABLE_FULL)

    def test_flow_stats(self):
        h = _Harness()
        h.send(
            add_flow(Match(in_port=1), out_port=2, priority=7),
            FlowStatsRequest(xid=11),
        )
        reply = next(m for m in h.received if isinstance(m, FlowStatsReply))
        assert reply.xid == 11
        assert len(reply.entries) == 1
        assert reply.entries[0].priority == 7

    def test_delete_via_control(self):
        h = _Harness()
        h.send(
            add_flow(Match(in_port=1), out_port=2),
            delete_flow(Match(in_port=1)),
            BarrierRequest(xid=1),
        )
        assert h.switch.flow_count() == 0


class TestSwitchTimeouts:
    """A timed-out entry leaves the table when the clock reaches its
    deadline, not only at the next lookup, and the controller hears of
    it when it was installed with ``SEND_FLOW_REM``."""

    def test_hard_timeout_removes_the_entry_and_reports_it(self):
        h = _Harness()
        mod = add_flow(Match(in_port=1), out_port=2, hard_timeout=1)
        mod.flags = int(FlowModFlags.SEND_FLOW_REM)
        h.send(mod)
        # draining the control traffic does not wait for the timeout
        assert h.switch.flow_count() == 1 and h.sim.now < 3.0
        h.sim.run(until=1_010.0)
        assert h.switch.flow_count() == 0
        [removed] = [m for m in h.received if isinstance(m, FlowRemoved)]
        assert removed.reason == int(FlowRemovedReason.HARD_TIMEOUT)
        assert removed.match == Match(in_port=1)

    def test_traffic_pushes_an_idle_deadline_back(self):
        h = _Harness()
        h.send(add_flow(Match(in_port=1), out_port=2, idle_timeout=10))
        seen = []
        h.sim.schedule(8_000.0, lambda: h.switch.receive_packet(Packet(), in_port=1))
        h.sim.schedule(15_000.0, lambda: seen.append(h.switch.flow_count()))
        h.sim.run(until=30_000.0)
        # installed at ~2 ms, touched at ~8 s: alive at ~15 s, gone by
        # 30 s, and unflagged, so the controller hears nothing
        assert seen == [1] and h.switch.flow_count() == 0
        assert not any(isinstance(m, FlowRemoved) for m in h.received)

    def test_timeouts_are_seconds_of_simulated_time(self):
        # OpenFlow (and POST /stats/flowentry/add) give timeouts in
        # seconds; the simulator's clock runs in ms
        h = _Harness()
        mod = add_flow(Match(in_port=1), out_port=2, hard_timeout=1)
        mod.flags = int(FlowModFlags.SEND_FLOW_REM)
        h.send(mod)
        [entry] = h.switch.tables[0]
        h.sim.run(until=entry.install_time + 999.0)
        assert h.switch.flow_count() == 1
        assert not any(isinstance(m, FlowRemoved) for m in h.received)
        h.sim.run(until=entry.install_time + 1_001.0)
        assert h.switch.flow_count() == 0
        h.sim.run()
        [removed] = [m for m in h.received if isinstance(m, FlowRemoved)]
        assert removed.reason == int(FlowRemovedReason.HARD_TIMEOUT)

    def test_entries_without_timeouts_arm_nothing(self):
        h = _Harness()
        h.send(add_flow(Match(in_port=1), out_port=2))
        assert h.sim.pending_events == 0


class TestSwitchDataplane:
    def test_forward_calls_on_output(self):
        h = _Harness()
        h.send(add_flow(Match(in_port=1), out_port=7))
        emitted = []
        h.switch.on_output = lambda sw, packet, port, now: emitted.append(port)
        result = h.switch.receive_packet(Packet(), in_port=1)
        assert result.forwarded and emitted == [7]
        assert h.switch.log.packets_forwarded == 1

    def test_drop_counted(self):
        h = _Harness()
        h.switch.receive_packet(Packet(), in_port=1)
        assert h.switch.log.packets_dropped == 1

    def test_dump_flows(self):
        h = _Harness()
        h.send(add_flow(Match(in_port=1), out_port=7, priority=3))
        dump = h.switch.dump_flows()
        assert dump[0]["priority"] == 3
        assert dump[0]["match"] == {"in_port": 1}
