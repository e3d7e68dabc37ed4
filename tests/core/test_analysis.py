"""Tests for update dependency analysis and schedule explanations."""

import pytest

from repro.core.analysis import (
    dependency_graph,
    explain_schedule,
    greedy_deadlock_certificate,
    is_order_forced,
    unsafe_alone,
)
from repro.core.hardness import crossing_instance, double_diamond_instance
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.core.wayup import wayup_schedule


class TestUnsafeAlone:
    def test_crossing_wpe(self):
        # 2 first sends pre-waypoint packets straight to d; 1 first routes
        # onto the not-yet-ready new path whose old rules skip the waypoint
        blocked = unsafe_alone(crossing_instance(), (Property.WPE,))
        assert blocked == {1, 2}
        # the early mover (4) and the waypoint (3) are safe openers
        assert 3 not in blocked and 4 not in blocked

    def test_blackhole_blocks_switch_before_install(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert unsafe_alone(problem, (Property.BLACKHOLE,)) == {1}

    def test_safe_problem_has_none(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 4])  # pure forward
        assert unsafe_alone(problem, (Property.SLF,)) == set()


class TestForcedOrders:
    def test_crossing_forced_chain(self):
        """WPE forces early-mover -> source -> late-mover, exactly."""
        problem = crossing_instance()
        assert is_order_forced(problem, 4, 1, (Property.WPE,))
        assert is_order_forced(problem, 1, 2, (Property.WPE,))
        assert is_order_forced(problem, 4, 2, (Property.WPE,))  # transitive

    def test_unforced_pairs(self):
        problem = crossing_instance()
        # the waypoint and the early mover can share a round: no order
        assert not is_order_forced(problem, 4, 3, (Property.WPE,))
        assert not is_order_forced(problem, 3, 4, (Property.WPE,))
        # reverse of a forced pair is of course not forced
        assert not is_order_forced(problem, 2, 1, (Property.WPE,))

    def test_self_and_unknown(self):
        problem = crossing_instance()
        assert not is_order_forced(problem, 1, 1, (Property.WPE,))
        with pytest.raises(ValueError):
            is_order_forced(problem, 99, 1, (Property.WPE,))

    def test_infeasible_instances_force_nothing(self):
        problem = crossing_instance()
        assert not is_order_forced(problem, 4, 1, (Property.WPE, Property.SLF))

    def test_dependency_graph_respected_by_wayup(self):
        problem = crossing_instance()
        schedule = wayup_schedule(problem, include_cleanup=False)
        graph = dependency_graph(problem, (Property.WPE,))
        assert set(graph.edges) == {(4, 1), (1, 2), (4, 2)}
        for before, after in graph.edges:
            assert schedule.round_of(before) < schedule.round_of(after)

    def test_dependency_graph_acyclic_on_feasible(self):
        import networkx as nx

        graph = dependency_graph(crossing_instance(), (Property.WPE,))
        assert nx.is_directed_acyclic_graph(graph)


class TestInfeasibilityCertificates:
    def test_crossing_wpe_slf_deadlocks_immediately(self):
        certificate = greedy_deadlock_certificate(
            crossing_instance(), (Property.WPE, Property.SLF)
        )
        assert certificate == set(crossing_instance().required_updates)

    def test_wpe_alone_can_start(self):
        assert greedy_deadlock_certificate(
            crossing_instance(), (Property.WPE,)
        ) is None

    def test_diamond_full_combination_can_start(self):
        assert greedy_deadlock_certificate(
            double_diamond_instance(),
            (Property.WPE, Property.SLF, Property.BLACKHOLE),
        ) is None


class TestExplain:
    def test_narrative_lines(self):
        schedule = wayup_schedule(crossing_instance())
        lines = explain_schedule(schedule)
        assert len(lines) == schedule.n_rounds
        assert lines[0].startswith("round 0 [post-waypoint]")
        assert any("becomes" in line for line in lines)

    def test_mentions_installs_and_deletes(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        from repro.core.peacock import peacock_schedule

        lines = explain_schedule(peacock_schedule(problem))
        text = "\n".join(lines)
        assert "install" in text
        assert "delete stale rule" in text
