"""Tests for topology builders, random generators and JSON I/O."""

import random

import pytest

from repro.errors import TopologyError
from repro.topology.builders import (
    FIGURE1_NEW_PATH,
    FIGURE1_OLD_PATH,
    FIGURE1_WAYPOINT,
    fat_tree,
    figure1,
    figure1_paths,
    grid,
    linear,
    ring,
)
from repro.topology.io import (
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.paths import Path
from repro.topology.random_graphs import (
    erdos_renyi,
    random_simple_path,
    random_update_instance,
    random_waypointed_instance,
    waxman,
)


class TestBuilders:
    def test_linear(self):
        topo = linear(4)
        assert len(topo) == 4
        assert len(topo.links()) == 3

    def test_linear_with_hosts(self):
        topo = linear(3, with_hosts=True)
        assert set(topo.hosts()) == {"h1", "h2"}
        assert topo.has_link("h1", 1) and topo.has_link("h2", 3)

    def test_linear_validation(self):
        with pytest.raises(TopologyError):
            linear(0)

    def test_ring(self):
        topo = ring(5)
        assert all(topo.degree(n) == 2 for n in topo.switches())
        with pytest.raises(TopologyError):
            ring(2)

    def test_grid(self):
        topo = grid(3, 4)
        assert len(topo) == 12
        assert topo.has_link(1, 2) and topo.has_link(1, 5)

    def test_fat_tree_structure(self):
        topo = fat_tree(4)
        assert len(topo) == 20  # 4 core + 8 agg + 8 edge
        assert len(topo.links()) == 32
        assert topo.is_connected()

    def test_fat_tree_rejects_odd(self):
        with pytest.raises(TopologyError):
            fat_tree(3)


class TestFigure1:
    def test_twelve_switches_two_hosts(self):
        topo = figure1()
        assert len(topo.switches()) == 12
        assert set(topo.hosts()) == {"h1", "h2"}

    def test_both_routes_exist(self):
        topo = figure1()
        Path(FIGURE1_OLD_PATH).validate_in(topo)
        Path(FIGURE1_NEW_PATH).validate_in(topo)

    def test_paths_share_endpoints_and_waypoint(self):
        old, new, waypoint = figure1_paths()
        assert old.source == new.source == 1
        assert old.destination == new.destination == 12
        assert waypoint == FIGURE1_WAYPOINT
        assert waypoint in old and waypoint in new

    def test_waypoint_attr_marked(self):
        topo = figure1()
        assert topo.node(3).attrs["waypoint"] is True
        assert topo.node(4).attrs["waypoint"] is False

    def test_spare_switches_unused_by_routes(self):
        used = set(FIGURE1_OLD_PATH) | set(FIGURE1_NEW_PATH)
        spares = set(range(1, 13)) - used
        assert spares == {10, 11}


class TestRandomGraphs:
    def test_erdos_renyi_connected(self):
        topo = erdos_renyi(12, 0.3, seed=1)
        assert topo.is_connected()
        assert len(topo) == 12

    def test_waxman_connected(self):
        topo = waxman(10, seed=2)
        assert topo.is_connected()

    def test_determinism(self):
        a = erdos_renyi(10, 0.4, seed=7)
        b = erdos_renyi(10, 0.4, seed=7)
        assert {l.endpoints() for l in a.links()} == {
            l.endpoints() for l in b.links()
        }

    def test_random_simple_path(self):
        topo = erdos_renyi(10, 0.5, seed=4)
        path = random_simple_path(topo, 1, 10, seed=5)
        assert path.source == 1 and path.destination == 10
        path.validate_in(topo)

    def test_random_update_instance_shape(self):
        old, new, waypoint = random_update_instance(8, seed=6)
        assert old.source == new.source and old.destination == new.destination
        assert waypoint is None

    def test_waypointed_instance(self):
        old, new, waypoint = random_waypointed_instance(8, seed=7)
        assert waypoint in old and waypoint in new
        assert waypoint not in (old.source, old.destination)

    def test_instance_determinism(self):
        a = random_update_instance(8, seed=11)
        b = random_update_instance(8, seed=11)
        assert a[0] == b[0] and a[1] == b[1]

    def test_rng_instance_accepted(self):
        rng = random.Random(3)
        old, new, _ = random_update_instance(6, seed=rng)
        assert old.source == new.source


class TestIO:
    def test_dict_roundtrip(self):
        topo = figure1()
        back = topology_from_dict(topology_to_dict(topo))
        assert sorted(back.nodes(), key=repr) == sorted(topo.nodes(), key=repr)
        assert {frozenset(l.endpoints()) for l in back.links()} == {
            frozenset(l.endpoints()) for l in topo.links()
        }

    def test_link_attrs_survive(self):
        topo = Path  # placeholder to satisfy linters; real assertions below
        from repro.topology.graph import Topology

        t = Topology()
        t.add_switch(1)
        t.add_switch(2)
        t.add_link(1, 2, latency_ms=7.5, bandwidth_mbps=100.0)
        back = topology_from_dict(topology_to_dict(t))
        link = back.link_between(1, 2)
        assert link.latency_ms == 7.5 and link.bandwidth_mbps == 100.0

    def test_bad_dict_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"nodes": [{}]})
        with pytest.raises(TopologyError):
            topology_from_dict({"nodes": [{"id": 1}], "links": [{"a": 1}]})
        with pytest.raises(TopologyError):
            topology_from_dict([1, 2])
