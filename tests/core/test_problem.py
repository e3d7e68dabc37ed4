"""Unit tests for the update-problem model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import (
    Configuration,
    RuleState,
    UpdateKind,
    UpdateProblem,
    trace_walk,
)
from repro.errors import UpdateModelError


class TestValidation:
    def test_sources_must_agree(self):
        with pytest.raises(UpdateModelError, match="source"):
            UpdateProblem([1, 2, 3], [2, 1, 3])

    def test_destinations_must_agree(self):
        with pytest.raises(UpdateModelError, match="destination"):
            UpdateProblem([1, 2, 3], [1, 2, 4])

    def test_waypoint_must_be_on_both_paths(self):
        with pytest.raises(UpdateModelError, match="waypoint"):
            UpdateProblem([1, 2, 3], [1, 4, 3], waypoint=2)

    def test_waypoint_cannot_be_endpoint(self):
        with pytest.raises(UpdateModelError, match="interior"):
            UpdateProblem([1, 2, 3], [1, 2, 3], waypoint=1)

    def test_valid_waypoint_accepted(self):
        problem = UpdateProblem([1, 2, 3], [1, 2, 3], waypoint=2)
        assert problem.waypoint == 2


class TestClassification:
    @pytest.fixture
    def problem(self):
        # old: 1-2-3-4-5   new: 1-6-3-2-5 (2 crosses, 4 old-only, 6 fresh)
        return UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 2, 5], waypoint=3)

    def test_install(self, problem):
        assert problem.kind(6) is UpdateKind.INSTALL

    def test_switch(self, problem):
        assert problem.kind(1) is UpdateKind.SWITCH
        assert problem.kind(2) is UpdateKind.SWITCH
        assert problem.kind(3) is UpdateKind.SWITCH

    def test_delete(self, problem):
        assert problem.kind(4) is UpdateKind.DELETE

    def test_destination_is_noop(self, problem):
        assert problem.kind(5) is UpdateKind.NOOP

    def test_unknown_node_rejected(self, problem):
        with pytest.raises(UpdateModelError):
            problem.kind(99)

    def test_noop_when_next_hop_unchanged(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 2, 3, 4])
        assert problem.kind(2) is UpdateKind.NOOP

    def test_required_updates(self, problem):
        assert problem.required_updates == {1, 2, 3, 6}

    def test_cleanup_updates(self, problem):
        assert problem.cleanup_updates == {4}

    def test_all_updates(self, problem):
        assert problem.all_updates == {1, 2, 3, 4, 6}


class TestForwarding:
    def test_old_state_follows_old_path(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert problem.next_hop(1, RuleState.OLD) == 2
        assert problem.next_hop(2, RuleState.OLD) == 3

    def test_new_state_follows_new_path(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert problem.next_hop(1, RuleState.NEW) == 4
        assert problem.next_hop(4, RuleState.NEW) == 3

    def test_new_only_node_drops_in_old_state(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert problem.next_hop(4, RuleState.OLD) is None

    def test_old_only_node_drops_in_new_state(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert problem.next_hop(2, RuleState.NEW) is None

    def test_destination_never_forwards(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        with pytest.raises(UpdateModelError):
            problem.next_hop(3, RuleState.OLD)


class TestWaypointClasses:
    def test_partition(self):
        problem = UpdateProblem([1, 2, 3, 4, 5], [1, 4, 3, 2, 5], waypoint=3)
        classes = problem.waypoint_classes
        assert classes.old_pre == {1, 2}
        assert classes.old_suf == {4, 5}
        assert classes.new_pre == {1, 4}
        assert classes.new_suf == {2, 5}

    def test_requires_waypoint(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        with pytest.raises(UpdateModelError):
            _ = problem.waypoint_classes


class TestWalks:
    def test_all_old_walk_follows_old_path(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        config = Configuration(problem=problem, states={})
        walk = config.walk_from_source()
        assert walk.delivered
        assert walk.visited == (1, 2, 3, 4)

    def test_all_new_walk_follows_new_path(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        states = {n: RuleState.NEW for n in (1, 2, 3)}
        walk = Configuration(problem=problem, states=states).walk_from_source()
        assert walk.delivered
        assert walk.visited == (1, 3, 2, 4)

    def test_mixed_walk_can_loop(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        # 1 new -> 3; 3 old -> 4? no: old next of 3 is 4... craft loop:
        # 1->3 (new), 3->2 (new), 2->3 (old): revisit 3
        states = {1: RuleState.NEW, 3: RuleState.NEW}
        walk = Configuration(problem=problem, states=states).walk_from_source()
        assert walk.looped
        assert walk.visited[-1] == walk.visited[1]

    def test_walk_detects_drop(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        states = {1: RuleState.NEW}  # 4 still has no rule
        walk = Configuration(problem=problem, states=states).walk_from_source()
        assert walk.dropped
        assert walk.visited == (1, 4)

    def test_traversed(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        walk = Configuration(problem=problem).walk_from_source()
        assert walk.traversed(2)
        assert not walk.traversed(99)

    def test_trace_walk_step_limit(self):
        # a next hop off the problem's nodes never repeats one: only the
        # step limit (one more than the node count) ends the walk
        problem = UpdateProblem([1, 2, 3], [1, 2, 3])
        with pytest.raises(UpdateModelError):
            trace_walk(problem, lambda n: n + 10)


def reference_next_hop(old, new, updated):
    """The forwarding table of the module docstring, read off the raw paths."""
    def next_hop(node):
        path = new if node in updated else old
        if node not in path:
            return None  # OLD at an install node / NEW at a deleted one
        return path[path.index(node) + 1]
    return next_hop


@st.composite
def walk_cases(draw):
    """Two simple paths 0 -> 1 over a shared pool, an optional common
    waypoint, and a random subset of forwarding nodes in the NEW state."""
    interior = st.lists(st.integers(2, 9), unique=True, max_size=8)
    old = (0, *draw(interior), 1)
    new = (0, *draw(interior), 1)
    common = sorted(set(old[1:-1]) & set(new[1:-1]))
    waypoint = draw(st.sampled_from(common)) if common and draw(st.booleans()) else None
    forwarding = sorted((set(old) | set(new)) - {1})
    updated = draw(st.sets(st.sampled_from(forwarding)))
    return old, new, waypoint, updated


class TestTableWalkAgainstTraceWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_walk_equals_the_generic_walk(self, case):
        old, new, waypoint, updated = case
        problem = UpdateProblem(old, new, waypoint=waypoint)
        expected = trace_walk(problem, reference_next_hop(old, new, updated))
        for container in (updated, frozenset(updated), dict.fromkeys(updated)):
            walk = problem.walk(container)
            assert (walk.outcome, walk.visited) == (expected.outcome, expected.visited)
        states = {node: RuleState.NEW for node in updated}
        states.update({node: RuleState.OLD for node in set(old) - updated})
        assert Configuration(problem, states).walk_from_source() == expected

    @pytest.mark.parametrize(
        "updated, outcome, visited",
        [
            (set(), "delivered", (1, 2, 3, 6)),
            ({1, 4}, "delivered", (1, 4, 3, 6)),
            ({1}, "dropped", (1, 4)),           # 4 is INSTALL, still OLD
            ({2}, "dropped", (1, 2)),           # 2 is DELETE, already NEW
            ({1, 4, 3, 5, 2}, "delivered", (1, 4, 3, 5, 6)),
        ],
    )
    def test_drops_at_install_and_delete_nodes(self, updated, outcome, visited):
        problem = UpdateProblem([1, 2, 3, 6], [1, 4, 3, 5, 6], waypoint=3)
        walk = problem.walk(updated)
        assert (walk.outcome, walk.visited) == (outcome, visited)

    def test_loop_repeats_the_closing_node(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        walk = problem.walk({1, 3})  # 1->3 (new), 3->2 (new), 2->3 (old)
        assert walk.looped and walk.visited == (1, 3, 2, 3)
        assert walk == trace_walk(
            problem, reference_next_hop((1, 2, 3, 4), (1, 3, 2, 4), {1, 3})
        )


class TestSerialization:
    def test_roundtrip(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3], waypoint=None, name="x")
        data = problem.to_dict()
        back = UpdateProblem.from_dict(data)
        assert back.old_path == problem.old_path
        assert back.new_path == problem.new_path
        assert back.waypoint is None

    def test_waypoint_survives(self):
        problem = UpdateProblem([1, 2, 3], [1, 2, 3], waypoint=2)
        assert UpdateProblem.from_dict(problem.to_dict()).waypoint == 2
