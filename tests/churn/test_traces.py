"""Tests for the seeded churn-trace generators."""

import random

import pytest

from repro.churn.events import LinkFailure, UpdateArrival, UpdateCancel
from repro.churn.traces import generate_trace
from repro.churn_options import trace_params
from repro.errors import ChurnError, TopologyError
from repro.topology.graph import Topology
from repro.topology.random_graphs import sample_simple_path


def diamond() -> Topology:
    topo = Topology("diamond")
    for node in range(1, 7):
        topo.add_switch(node)
    for a, b in [(1, 2), (2, 3), (3, 5), (1, 4), (4, 5), (1, 6), (6, 5)]:
        topo.add_link(a, b)
    return topo


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = generate_trace("fat-tree", 4, 5, duration_ms=200.0)
        second = generate_trace("fat-tree", 4, 5, duration_ms=200.0)
        assert first.events == second.events
        assert first.flows == second.flows
        assert first.summary() == second.summary()

    def test_different_seed_different_events(self):
        first = generate_trace("fat-tree", 4, 5, duration_ms=200.0)
        second = generate_trace("fat-tree", 4, 6, duration_ms=200.0)
        assert first.events != second.events

    def test_wan_kind_generates(self):
        trace = generate_trace("wan", 16, 3, duration_ms=150.0)
        assert trace.kind == "wan"
        assert trace.arrivals


class TestShape:
    def test_events_are_time_sorted(self):
        trace = generate_trace("fat-tree", 4, 9, duration_ms=300.0)
        times = [event.time_ms for event in trace.events]
        assert times == sorted(times)

    def test_cancels_reference_prior_arrivals(self):
        trace = generate_trace(
            "fat-tree", 4, 11, duration_ms=400.0, cancel_prob=0.5
        )
        arrivals = {e.request_id: e for e in trace.events
                    if isinstance(e, UpdateArrival)}
        cancels = [e for e in trace.events if isinstance(e, UpdateCancel)]
        assert cancels  # p=0.5 over dozens of arrivals
        for cancel in cancels:
            assert cancel.request_id in arrivals
            assert cancel.time_ms >= arrivals[cancel.request_id].time_ms

    def test_knobs_can_silence_event_kinds(self):
        trace = generate_trace(
            "fat-tree", 4, 13, duration_ms=300.0,
            cancel_prob=0.0, link_failures=0, waypoint_prob=0.0,
        )
        assert not any(isinstance(e, UpdateCancel) for e in trace.events)
        assert not any(isinstance(e, LinkFailure) for e in trace.events)
        assert not any(e.waypointed for e in trace.arrivals)

    def test_failures_hit_fabric_links_only(self):
        trace = generate_trace(
            "fat-tree", 4, 17, duration_ms=300.0, link_failures=3
        )
        switches = set(trace.topology.switches())
        failures = [e for e in trace.events if isinstance(e, LinkFailure)]
        assert len(failures) == 3
        for failure in failures:
            u, v = failure.link
            assert u in switches and v in switches

    def test_arrival_targets_match_flow_endpoints(self):
        trace = generate_trace("fat-tree", 4, 19, duration_ms=200.0)
        flows = {flow.flow_id: flow for flow in trace.flows}
        for arrival in trace.arrivals:
            flow = flows[arrival.flow_id]
            assert arrival.target_path[0] == flow.source
            assert arrival.target_path[-1] == flow.destination


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ChurnError):
            generate_trace("torus", 4, 1)

    def test_a_one_switch_wan_is_a_churn_error(self):
        with pytest.raises(ChurnError, match="need at least two switches"):
            generate_trace("wan", 1, 1)

    def test_bad_rate_and_duration(self):
        with pytest.raises(ChurnError):
            generate_trace("fat-tree", 4, 1, rate_per_s=0.0)
        with pytest.raises(ChurnError):
            generate_trace("fat-tree", 4, 1, duration_ms=-1.0)

    def test_trace_params_rejects_unknown_keys(self):
        with pytest.raises(ChurnError) as err:
            trace_params({"rate_per_s": 10, "burst": 3})
        assert "burst" in str(err.value)

    def test_trace_params_coerces_types(self):
        kwargs = trace_params({"rate_per_s": "25", "flows": "4",
                               "link_failures": "2"})
        assert kwargs == {"rate_per_s": 25.0, "flows": 4, "link_failures": 2}


class TestSampleSimplePath:
    def test_respects_avoided_links(self):
        topo = diamond()
        rng = random.Random(0)
        for _ in range(20):
            path = sample_simple_path(topo, 1, 5, rng, avoid_links=[(2, 3)])
            assert path is not None
            assert path[0] == 1 and path[-1] == 5
            hops = set(zip(path, path[1:]))
            assert (2, 3) not in hops and (3, 2) not in hops

    def test_returns_none_when_cut_off(self):
        topo = Topology("pair")
        topo.add_switch(1)
        topo.add_switch(2)
        topo.add_link(1, 2)
        assert sample_simple_path(
            topo, 1, 2, random.Random(0), avoid_links=[(1, 2)]
        ) is None

    def test_an_unknown_source_is_a_topology_error(self):
        with pytest.raises(TopologyError, match="unknown node 9"):
            sample_simple_path(diamond(), 9, 5, random.Random(0))
