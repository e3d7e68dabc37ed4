"""Tests for periodic traffic injection."""

import pytest

from repro.controller.rules import compile_initial_rules
from repro.core.problem import UpdateProblem
from repro.dataplane import injector as injector_mod
from repro.dataplane.injector import FlowSpec, InjectionResult, PeriodicInjector
from repro.dataplane.packets import udp_packet
from repro.dataplane.violations import PacketFate, TraceRecord
from repro.netlab.network import Network
from repro.openflow.match import Match
from repro.topology.builders import linear


@pytest.fixture
def net():
    network = Network(linear(3, with_hosts=True), seed=0)
    network.start()
    match = Match(eth_type=0x0800, ipv4_dst=network.host("h2").ip)
    mods = compile_initial_rules(
        network.topo,
        UpdateProblem([1, 2, 3], [1, 2, 3]),
        match,
        egress_port=network.host("h2").switch_port,
    )
    network.send_flow_mods(mods)
    network.flush()
    return network


class TestPeriodicInjector:
    def test_injects_at_cadence(self, net):
        flow = FlowSpec(source_host="h1", destination_host="h2")
        injector = PeriodicInjector(net, flow, interval_ms=2.0)
        start = net.sim.now  # bootstrap traffic already advanced the clock
        injector.start()
        horizon = start + 10.0
        net.sim.run(until=horizon)
        injector.stop()
        net.flush()
        injector.result.finalize()
        expected = int(10.0 / 2.0) + 1  # ticks at start, +2, ..., +10
        assert abs(injector.result.counters.injected - expected) <= 1
        assert injector.result.counters.delivered == injector.result.counters.injected
        times = [t.injected_ms for t in injector.result.traces]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(gap - 2.0) < 1e-6 for gap in gaps)

    def test_max_packets_cap(self, net, monkeypatch):
        monkeypatch.setattr(injector_mod, "MAX_PACKETS", 5)
        flow = FlowSpec(source_host="h1", destination_host="h2")
        injector = PeriodicInjector(net, flow, interval_ms=0.1)
        injector.start()
        net.flush()
        assert len(injector.result.traces) == 5

    def test_start_idempotent(self, net, monkeypatch):
        monkeypatch.setattr(injector_mod, "MAX_PACKETS", 3)
        flow = FlowSpec(source_host="h1", destination_host="h2")
        injector = PeriodicInjector(net, flow, interval_ms=1.0)
        injector.start()
        injector.start()
        net.flush()
        assert len(injector.result.traces) == 3

    def test_custom_packet_factory(self, net, monkeypatch):
        monkeypatch.setattr(injector_mod, "MAX_PACKETS", 2)
        h1, h2 = net.host("h1"), net.host("h2")
        flow = FlowSpec(
            source_host="h1",
            destination_host="h2",
            packet_factory=lambda: udp_packet(h1.ip, h2.ip, dst_port=9999),
        )
        injector = PeriodicInjector(net, flow, interval_ms=1.0)
        injector.start()
        net.flush()
        # the line's rules match on ipv4_dst, so UDP probes still deliver
        injector.result.finalize()
        assert injector.result.counters.delivered == 2

    def test_waypoint_annotation(self, net, monkeypatch):
        monkeypatch.setattr(injector_mod, "MAX_PACKETS", 2)
        flow = FlowSpec(source_host="h1", destination_host="h2", waypoint=2)
        injector = PeriodicInjector(net, flow, interval_ms=1.0)
        injector.start()
        net.flush()
        injector.result.finalize()
        assert injector.result.counters.delivered == 2  # 2 is on the path

    def test_finalize_recounts(self):
        result = InjectionResult()
        result.traces.append(
            TraceRecord(packet_id=1, injected_ms=0.0, fate=PacketFate.DROPPED)
        )
        counters = result.finalize()
        assert counters.injected == 1 and counters.dropped == 1
