"""Tests for the control-plane trace recorder."""

import pytest

from repro.controller.trace import ControlPlaneTrace
from repro.netlab.figure1 import build_figure1_scenario


@pytest.fixture
def traced_run():
    scenario = build_figure1_scenario(algorithm="wayup", seed=1)
    trace = ControlPlaneTrace().attach(scenario.network)
    result = scenario.run()
    return scenario, trace, result


class TestRecording:
    def test_records_handshake_and_update(self, traced_run):
        _, trace, _ = traced_run
        assert len(trace) > 50
        assert trace.of_type("HELLO")
        assert trace.of_type("FEATURES_REPLY")
        assert trace.of_type("FLOW_MOD")
        assert trace.of_type("BARRIER_REQUEST")
        assert trace.of_type("BARRIER_REPLY")

    def test_times_monotone(self, traced_run):
        _, trace, _ = traced_run
        times = [entry.time_ms for entry in trace.entries]
        assert times == sorted(times)

    def test_barrier_fencing_invariant(self, traced_run):
        scenario, trace, _ = traced_run
        for dpid in scenario.network.topo.switches():
            assert trace.flow_mods_before_barrier(dpid), dpid

    def test_rounds_observed_match_schedule(self, traced_run):
        scenario, trace, result = traced_run
        from repro.core.wayup import wayup_schedule
        from repro.netlab.figure1 import figure1_problem

        schedule = wayup_schedule(figure1_problem())
        # every updated switch sees exactly one barrier per round it's in
        for node in schedule.scheduled_nodes():
            rounds_with_node = sum(1 for r in schedule.rounds if node in r)
            assert trace.rounds_observed(node) == rounds_with_node

    def test_attach_idempotent(self):
        scenario = build_figure1_scenario(algorithm="wayup", seed=2)
        trace = ControlPlaneTrace()
        trace.attach(scenario.network)
        trace.attach(scenario.network)
        scenario.prepare()
        hellos = trace.of_type("HELLO")
        # one HELLO out + one back per switch, not doubled
        assert len(hellos) == 24

    def test_per_switch_filter(self, traced_run):
        _, trace, _ = traced_run
        entries = trace.for_switch(3)
        assert entries and all(e.dpid == 3 for e in entries)

    def test_explains_violation_ordering(self):
        """The trace shows the one-shot failure: flow mods land unordered."""
        scenario = build_figure1_scenario(
            algorithm="oneshot", seed=3, channel_latency="uniform:0.5:8"
        )
        trace = ControlPlaneTrace().attach(scenario.network)
        result = scenario.run()
        mods = trace.of_type("FLOW_MOD")
        # all mods sent in one burst: same send time, no fencing between
        send_times = {round(e.time_ms, 3) for e in mods}
        assert len(send_times) <= 2  # initial rules burst + update burst
        assert result.verified is False
