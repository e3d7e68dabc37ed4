"""Tests for the network lab: boot, rules, injection, tracing."""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.controller.rules import compile_initial_rules
from repro.core.problem import UpdateProblem
from repro.dataplane.violations import PacketFate
from repro.errors import ScenarioError
from repro.netlab.network import Network
from repro.openflow.constants import Port
from repro.openflow.match import Match
from repro.topology.builders import figure1, linear
from repro.topology.graph import Topology


@pytest.fixture
def net():
    network = Network(linear(3, with_hosts=True), seed=0)
    network.start()
    return network


class TestBoot:
    def test_all_switches_handshake(self, net):
        assert net.controller.connected_dpids == [1, 2, 3]

    def test_hosts_attached(self, net):
        h1 = net.host("h1")
        assert h1.switch_dpid == 1
        assert h1.ip == "10.0.0.1"
        assert net.host("h2").switch_dpid == 3

    def test_unknown_lookup(self, net):
        with pytest.raises(ScenarioError):
            net.host("h9")
        with pytest.raises(ScenarioError):
            net.switch(99)

    def test_start_idempotent(self, net):
        net.start()  # second call is a no-op

    def test_bad_packet_mode(self):
        with pytest.raises(ScenarioError):
            Network(linear(2), packet_mode="teleport")

    def test_host_needs_single_attachment(self):
        topo = linear(2)
        topo.add_host("h1")
        topo.add_link("h1", 1)
        topo.add_link("h1", 2)
        with pytest.raises(ScenarioError, match="exactly one"):
            Network(topo)


def _install_line_rules(net: Network, match: Match) -> None:
    problem = UpdateProblem([1, 2, 3], [1, 2, 3])
    # install old-path rules by hand: 1->2->3->h2
    mods = compile_initial_rules(
        net.topo, UpdateProblem([1, 2, 3], [1, 2, 3]), match,
        egress_port=net.host("h2").switch_port,
    )
    net.send_flow_mods(mods)
    net.flush()


class TestInjectionInstant:
    def test_delivery(self, net):
        match = Match(eth_type=0x0800, ipv4_dst=net.host("h2").ip)
        _install_line_rules(net, match)
        trace = net.inject_from_host(
            "h1", net.default_packet("h1", "h2"), destination_host="h2"
        )
        assert trace.fate is PacketFate.DELIVERED
        assert trace.path == [1, 2, 3]
        assert trace.completed_ms == net.sim.now

    def test_drop_without_rules(self, net):
        trace = net.inject_from_host(
            "h1", net.default_packet("h1", "h2"), destination_host="h2"
        )
        assert trace.fate is PacketFate.DROPPED
        assert trace.path == [1]

    def test_waypoint_bypass_detected(self, net):
        match = Match(eth_type=0x0800, ipv4_dst=net.host("h2").ip)
        _install_line_rules(net, match)
        trace = net.inject_from_host(
            "h1", net.default_packet("h1", "h2"),
            waypoint=99,  # not on the path
            destination_host="h2",
        )
        assert trace.fate is PacketFate.BYPASSED_WAYPOINT

    def test_loop_detected(self, net):
        # 1 -> 2 and 2 -> 1: a deterministic loop
        from repro.openflow.flowmod import add_flow

        match = Match(eth_type=0x0800, ipv4_dst=net.host("h2").ip)
        net.send_flow_mods({
            1: [add_flow(match, out_port=net.topo.port_between(1, 2))],
            2: [add_flow(match, out_port=net.topo.port_between(2, 1))],
        })
        net.flush()
        trace = net.inject_from_host(
            "h1", net.default_packet("h1", "h2"), destination_host="h2"
        )
        assert trace.fate is PacketFate.LOOPED

    def test_wrong_host_counts_as_drop(self, net):
        from repro.openflow.flowmod import add_flow

        match = Match(eth_type=0x0800, ipv4_dst=net.host("h2").ip)
        # route back out to h1's own port
        net.send_flow_mods({
            1: [add_flow(match, out_port=net.host("h1").switch_port)],
        })
        net.flush()
        trace = net.inject_from_host(
            "h1", net.default_packet("h1", "h2"), destination_host="h2"
        )
        assert trace.fate is PacketFate.DROPPED


class TestInjectionPerHop:
    def test_delivery_takes_link_latency(self):
        network = Network(linear(3, with_hosts=True), seed=0, packet_mode="perhop")
        network.start()
        match = Match(eth_type=0x0800, ipv4_dst=network.host("h2").ip)
        _install_line_rules(network, match)
        start = network.sim.now
        trace = network.inject_from_host(
            "h1", network.default_packet("h1", "h2"), destination_host="h2"
        )
        assert trace.fate is PacketFate.IN_FLIGHT
        network.flush()
        assert trace.fate is PacketFate.DELIVERED
        # three links at 1ms default latency: s1->s2->s3->h2
        assert trace.completed_ms - start >= 3.0 - 1e-9

    def test_hop_budget_terminates_loops(self):
        from repro.openflow.flowmod import add_flow

        network = Network(linear(3, with_hosts=True), seed=0, packet_mode="perhop")
        network.start()
        match = Match(eth_type=0x0800, ipv4_dst=network.host("h2").ip)
        network.send_flow_mods({
            1: [add_flow(match, out_port=network.topo.port_between(1, 2))],
            2: [add_flow(match, out_port=network.topo.port_between(2, 1))],
        })
        network.flush()
        trace = network.inject_from_host(
            "h1", network.default_packet("h1", "h2"), destination_host="h2"
        )
        network.flush()
        assert trace.fate is PacketFate.LOOPED


class TestHairpin:
    """``output:IN_PORT`` sends a packet back out of the port it came in
    on; the switch counts it forwarded, so the trace must follow it."""

    @pytest.mark.parametrize("mode", ["instant", "perhop"])
    def test_hairpin_is_a_loop_not_a_drop(self, mode):
        from repro.openflow.flowmod import add_flow

        network = Network(linear(2, with_hosts=True), seed=0, packet_mode=mode)
        network.start()
        match = Match(eth_type=0x0800, ipv4_dst=network.host("h2").ip)
        network.send_flow_mods({
            1: [add_flow(match, out_port=network.topo.port_between(1, 2))],
            2: [add_flow(match, out_port=int(Port.IN_PORT))],
        })
        network.flush()
        trace = network.inject_from_host(
            "h1", network.default_packet("h1", "h2"), destination_host="h2"
        )
        network.flush()
        assert trace.fate is PacketFate.LOOPED
        if mode == "instant":
            assert trace.path == [1, 2, 1]
            assert network.switch(2).log.packets_forwarded == 1
        else:  # bounces until the hop budget runs out
            assert trace.path == [1, 2] * 4


class TestDatapathIds:
    def test_string_switch_ids_get_the_same_dpids_in_every_process(self):
        code = (
            "from repro.netlab.network import Network\n"
            "from repro.topology.graph import Topology\n"
            "topo = Topology()\n"
            "for name in ('s1', 's2'):\n"
            "    topo.add_switch(name)\n"
            "topo.add_link('s1', 's2')\n"
            "network = Network(topo)\n"
            "network.start()\n"
            "print([network.switch(name).dpid for name in ('s1', 's2')])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        printed = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(printed) == 1, printed

    def test_colliding_dpids_name_both_switches(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_switch(zlib.crc32(repr("s1").encode()))
        with pytest.raises(ScenarioError, match="'s1' and"):
            Network(topo)


class TestFigure1Network:
    def test_boots(self):
        network = Network(figure1(with_hosts=True), seed=1)
        network.start()
        assert len(network.controller.connected_dpids) == 12
        stats = network.channel_stats()
        assert all(s.to_switch_delivered > 0 for s in stats.values())
