"""End-to-end tests for the scenario runner and the Figure 1 demo."""

import pytest

from repro.dataplane.violations import PacketFate
from repro.netlab.figure1 import (
    build_figure1_scenario,
    figure1_problem,
    run_figure1,
)
from repro.netlab.scenario import UpdateScenario, final_path_of
from repro.topology.builders import figure1, figure1_paths


class TestFigure1WayUp:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1(algorithm="wayup", seed=1)

    def test_no_violations(self, result):
        assert result.violations == 0
        assert result.traffic.counters.bypassed_waypoint == 0
        assert result.traffic.counters.looped == 0
        assert result.traffic.counters.dropped == 0

    def test_all_probes_delivered(self, result):
        counters = result.traffic.counters
        assert counters.delivered == counters.injected > 0

    def test_five_rounds(self, result):
        assert result.rounds == 5
        assert len(result.round_durations_ms) == 5

    def test_verified(self, result):
        assert result.verified is True

    def test_update_time_positive(self, result):
        assert result.update_duration_ms > 0
        assert result.update_duration_ms >= sum(result.round_durations_ms) - 1e-6

    def test_every_probe_crossed_waypoint(self, result):
        _, _, waypoint = figure1_paths()
        for trace in result.traffic.traces:
            if trace.fate is PacketFate.DELIVERED:
                assert waypoint in trace.path


class TestFigure1Baselines:
    def test_oneshot_violates_under_jitter(self):
        result = run_figure1(
            algorithm="oneshot", seed=3, channel_latency="uniform:0.5:8"
        )
        assert result.violations > 0
        assert result.verified is False

    def test_peacock_never_loops_but_may_bypass(self):
        result = run_figure1(algorithm="peacock", seed=2)
        assert result.traffic.counters.looped == 0
        assert result.traffic.counters.dropped == 0

    def test_two_phase_clean_but_more_rules(self):
        clean = run_figure1(algorithm="two-phase", seed=4)
        wayup = run_figure1(algorithm="wayup", seed=4)
        assert clean.violations == 0
        assert clean.flow_mods > wayup.flow_mods

    def test_sequential_also_safe(self):
        result = run_figure1(algorithm="sequential", seed=5)
        # one node per round: WPE-safe orders are not guaranteed by
        # sequential, but the default order (installs first) happens to
        # keep delivery alive; at minimum nothing is dropped permanently
        final = result.traffic.traces[-1]
        assert final.fate is PacketFate.DELIVERED


class TestScenarioMechanics:
    def test_final_path_is_new_path(self):
        scenario = build_figure1_scenario(algorithm="wayup", seed=1)
        scenario.run()
        path = final_path_of(scenario.network, "h1", "h2")
        old_path, new_path, _ = figure1_paths()
        assert path == list(new_path.nodes)

    def test_initial_path_check_runs(self):
        scenario = build_figure1_scenario(algorithm="wayup", seed=1)
        scenario.prepare()
        path = final_path_of(scenario.network, "h1", "h2")
        old_path, _, _ = figure1_paths()
        assert path == list(old_path.nodes)

    def test_probe_traffic_spans_update(self, monkeypatch):
        monkeypatch.setattr(UpdateScenario, "probe_interval_ms", 0.5)
        result = run_figure1(algorithm="wayup", seed=1)
        times = [t.injected_ms for t in result.traffic.traces]
        assert min(times) <= result.update_duration_ms
        assert len(times) >= result.update_duration_ms / 0.5 * 0.5

    def test_custom_scenario_without_waypoint(self):
        from repro.core.problem import UpdateProblem
        from repro.topology.graph import Topology

        topo = Topology()
        for dpid in (1, 2, 3, 4):
            topo.add_switch(dpid)
        topo.add_link(1, 2)
        topo.add_link(2, 4)
        topo.add_link(1, 3)
        topo.add_link(3, 4)
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("h1", 1)
        topo.add_link("h2", 4)
        problem = UpdateProblem([1, 2, 4], [1, 3, 4])
        scenario = UpdateScenario(
            topo=topo, problem=problem, source_host="h1",
            destination_host="h2", algorithm="peacock", seed=0,
        )
        result = scenario.run()
        assert result.traffic.counters.delivered > 0
        assert final_path_of(scenario.network, "h1", "h2") == [1, 3, 4]

    def test_perhop_mode_runs(self):
        result = run_figure1(algorithm="wayup", seed=2, packet_mode="perhop")
        counters = result.traffic.counters
        assert counters.injected > 0
        assert counters.in_flight == 0  # everything resolved by flush
