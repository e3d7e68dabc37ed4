"""Tests for the topology graph model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.graph import Topology
from tests.core.generated import budget

#: ``add_node`` / ``add_link`` / ``remove_link`` over six node ids; an
#: invalid step (a duplicate, an unknown node, a missing link) is skipped.
_NODES = st.integers(0, 5)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add_node"), _NODES),
    st.tuples(st.just("add_link"), _NODES, _NODES),
    st.tuples(st.just("remove_link"), _NODES, _NODES),
), max_size=40)


class TestConstruction:
    def test_add_nodes_and_links(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        link = topo.add_link(1, 2, latency_ms=3.0)
        assert topo.has_link(1, 2) and topo.has_link(2, 1)
        assert link.latency_ms == 3.0

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_switch(1)

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        topo.add_link(1, 2)
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_link(2, 1)

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link(1, 1)

    def test_unknown_endpoint_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="unknown"):
            topo.add_link(1, 9)

    def test_bad_link_attrs_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, latency_ms=-1)
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, bandwidth_mbps=0)


class TestPorts:
    @pytest.fixture
    def topo(self):
        topo = Topology()
        for dpid in (1, 2, 3):
            topo.add_switch(dpid)
        topo.add_link(1, 2)
        topo.add_link(1, 3)
        return topo

    def test_ports_assigned_in_order(self, topo):
        assert topo.port_between(1, 2) == 1
        assert topo.port_between(1, 3) == 2
        assert topo.port_between(2, 1) == 1

    def test_peer_resolution(self, topo):
        assert topo.peer(1, 2) == (3, 1)
        assert topo.peer(3, 1) == (1, 2)

    def test_unknown_port(self, topo):
        with pytest.raises(TopologyError, match="no port"):
            topo.peer(1, 9)

    def test_ports_map(self, topo):
        assert topo.ports(1) == {1: 2, 2: 3}

    def test_neighbors_in_port_order(self, topo):
        assert topo.neighbors(1) == [2, 3]
        with pytest.raises(TopologyError, match="unknown node"):
            topo.neighbors(9)

    @budget(200)
    @given(_STEPS)
    def test_neighbors_read_off_the_port_table_in_port_order(self, steps):
        topo = Topology()
        for op, *args in steps:
            try:
                getattr(topo, op)(*args)
            except TopologyError:
                pass
            topo.validate()
        for node in topo:
            ports = topo.ports(node)
            assert topo.neighbors(node) == [ports[p] for p in sorted(ports)]

    def test_degree(self, topo):
        assert topo.degree(1) == 2
        assert topo.degree(2) == 1

    def test_ports_not_reused_after_removal(self, topo):
        topo.remove_link(1, 2)
        assert not topo.has_link(1, 2)
        topo.add_link(1, 2)
        assert topo.port_between(1, 2) == 3  # fresh port

    def test_version_counts_structural_changes(self, topo):
        assert topo.version == 5  # three nodes, two links
        topo.remove_link(1, 2)
        topo.add_host("h")
        topo.peer(1, 2)
        with pytest.raises(TopologyError):
            topo.remove_link(2, 3)  # no such link: nothing changed
        assert topo.version == 7


class TestQueries:
    def test_kinds(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_host("h1")
        assert topo.switches() == [1]
        assert topo.hosts() == ["h1"]
        assert topo.node("h1").is_host()
        assert topo.node(1).is_switch()

    def test_contains_len_iter(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        assert 1 in topo and 9 not in topo
        assert len(topo) == 2
        assert sorted(topo) == [1, 2]

    def test_unknown_node_raises(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.node(1)
        with pytest.raises(TopologyError):
            topo.link_between(1, 2)


class TestAlgorithms:
    def test_connectivity(self, line5):
        assert line5.is_connected()
        line5.remove_link(2, 3)
        assert not line5.is_connected()

    def test_validate_passes(self, triangle):
        triangle.validate()

    def test_validate_catches_a_desynced_neighbour_table(self, triangle):
        triangle._adjacent[1].reverse()  # 3 before 2, against port order
        with pytest.raises(TopologyError, match="neighbour table desync at 1"):
            triangle.validate()
        triangle._adjacent[1].reverse()
        triangle._adjacent[2].remove(3)
        with pytest.raises(TopologyError, match="neighbour table desync at 2"):
            triangle.validate()
