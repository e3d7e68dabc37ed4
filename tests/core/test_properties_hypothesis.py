"""Property-based tests: the algorithmic core under random instances.

These are the load-bearing correctness arguments of the reproduction:

* WayUp emits waypoint-enforcing, blackhole-free schedules on *arbitrary*
  waypointed instances;
* Peacock emits relaxed-loop-free schedules on arbitrary instances;
* the greedy strong-loop-free scheduler emits loop-free schedules;
* the polynomial verifiers agree with the exhaustive configuration oracle
  on arbitrary schedules (the union-graph theory, tested);
* schedules survive dict round-trips.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.oneshot import oneshot_schedule
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property, verify_exhaustive, verify_schedule
from repro.core.wayup import wayup_schedule
from repro.errors import UpdateModelError
from repro.topology.random_graphs import (
    random_update_instance,
    random_waypointed_instance,
)

_RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def update_instances(draw, with_waypoint: bool = False):
    """Random (old, new[, waypoint]) instances via the library generator."""
    n = draw(st.integers(min_value=4, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    overlap = draw(st.floats(min_value=0.0, max_value=1.0))
    old, new, waypoint = random_update_instance(
        n, seed=seed, overlap=overlap, with_waypoint=with_waypoint
    )
    return UpdateProblem(old, new, waypoint=waypoint if with_waypoint else None)


@st.composite
def random_schedules(draw):
    """A random problem with a random round partition of its updates."""
    problem = draw(update_instances(with_waypoint=draw(st.booleans())))
    nodes = sorted(problem.all_updates, key=repr)
    if not nodes:
        # force at least one change by regenerating deterministically
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        nodes = sorted(problem.all_updates, key=repr)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rng.shuffle(nodes)
    k = rng.randint(1, len(nodes))
    cuts = sorted(rng.sample(range(1, len(nodes)), k - 1)) if k > 1 else []
    rounds, prev = [], 0
    for cut in [*cuts, len(nodes)]:
        rounds.append(nodes[prev:cut])
        prev = cut
    return UpdateSchedule(problem, rounds)


class TestSchedulerGuarantees:
    @_RELAXED
    @given(update_instances(with_waypoint=True))
    def test_wayup_always_wpe_and_blackhole_free(self, problem):
        try:
            schedule = wayup_schedule(problem)
        except UpdateModelError:
            return  # no rule changes: nothing to guarantee
        report = verify_schedule(
            schedule, properties=(Property.WPE, Property.BLACKHOLE)
        )
        assert report.ok, [str(v) for v in report.violations]

    @_RELAXED
    @given(update_instances(with_waypoint=True))
    def test_wayup_agrees_with_exhaustive_oracle(self, problem):
        try:
            schedule = wayup_schedule(problem)
        except UpdateModelError:
            return
        report = verify_exhaustive(
            schedule, properties=(Property.WPE, Property.BLACKHOLE)
        )
        assert report.ok, [str(v) for v in report.violations]

    @_RELAXED
    @given(update_instances())
    def test_peacock_always_relaxed_loop_free(self, problem):
        try:
            schedule = peacock_schedule(problem)
        except UpdateModelError:
            return
        report = verify_schedule(
            schedule, properties=(Property.RLF, Property.BLACKHOLE)
        )
        assert report.ok, [str(v) for v in report.violations]

    @_RELAXED
    @given(update_instances())
    def test_greedy_slf_always_strongly_loop_free(self, problem):
        try:
            schedule = greedy_slf_schedule(problem)
        except UpdateModelError:
            return
        report = verify_schedule(schedule, properties=(Property.SLF,))
        assert report.ok, [str(v) for v in report.violations]

    @_RELAXED
    @given(update_instances())
    def test_peacock_never_more_rounds_than_greedy_slf(self, problem):
        try:
            rlf = peacock_schedule(problem, include_cleanup=False)
            slf = greedy_slf_schedule(problem, include_cleanup=False)
        except UpdateModelError:
            return
        assert rlf.n_rounds <= slf.n_rounds

    @_RELAXED
    @given(update_instances(with_waypoint=True))
    def test_oneshot_schedules_everything_once(self, problem):
        try:
            schedule = oneshot_schedule(problem)
        except UpdateModelError:
            return
        assert schedule.n_rounds == 1
        assert schedule.scheduled_nodes() == problem.all_updates


class TestVerifierSoundness:
    @_RELAXED
    @given(random_schedules())
    def test_polynomial_matches_exhaustive(self, schedule):
        problem = schedule.problem
        properties = [Property.SLF, Property.RLF, Property.BLACKHOLE]
        if problem.waypoint is not None:
            properties.append(Property.WPE)
        properties = tuple(properties)
        poly = verify_schedule(schedule, properties=properties)
        brute = verify_exhaustive(schedule, properties=properties)
        for prop in properties:
            assert bool(poly.by_property(prop)) == bool(
                brute.by_property(prop)
            ), (prop, schedule.problem.old_path, schedule.problem.new_path,
                schedule.rounds)

    @_RELAXED
    @given(random_schedules())
    def test_slf_implies_rlf(self, schedule):
        slf = verify_schedule(schedule, properties=(Property.SLF,))
        if slf.ok:
            rlf = verify_schedule(schedule, properties=(Property.RLF,))
            assert rlf.ok

    @_RELAXED
    @given(random_schedules())
    def test_verification_is_deterministic(self, schedule):
        properties = (Property.RLF, Property.BLACKHOLE)
        first = verify_schedule(schedule, properties=properties)
        second = verify_schedule(schedule, properties=properties)
        assert first.ok == second.ok
        assert len(first.violations) == len(second.violations)


class TestSafetyMonotonicity:
    """Safety is antitone in the round: shrinking a safe round stays safe.

    The union graph of a sub-round is a subgraph of the full round's, so
    every witness against the sub-round works against the superset too --
    the structural fact the greedy schedulers' incremental adds rely on.
    """

    @_RELAXED
    @given(random_schedules(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_subround_of_safe_round_is_safe(self, schedule, seed):
        problem = schedule.problem
        properties = [Property.SLF, Property.RLF, Property.BLACKHOLE]
        if problem.waypoint is not None:
            properties.append(Property.WPE)
        properties = tuple(properties)
        from repro.core.optimal import round_is_safe

        rng = random.Random(seed)
        updated: set = set()
        for round_nodes in schedule.rounds:
            nodes = set(round_nodes)
            if round_is_safe(problem, updated, nodes, properties) and len(nodes) > 1:
                subset = set(rng.sample(sorted(nodes, key=repr),
                                        rng.randint(1, len(nodes) - 1)))
                assert round_is_safe(problem, updated, subset, properties), (
                    problem.old_path, problem.new_path, updated, nodes, subset
                )
            updated |= nodes


class TestRoundTrips:
    @_RELAXED
    @given(update_instances(with_waypoint=True))
    def test_problem_dict_roundtrip(self, problem):
        back = UpdateProblem.from_dict(problem.to_dict())
        assert back.old_path == problem.old_path
        assert back.new_path == problem.new_path
        assert back.waypoint == problem.waypoint


class TestWaypointSemantics:
    @_RELAXED
    @given(update_instances(with_waypoint=True))
    def test_initial_and_final_configs_enforce_waypoint(self, problem):
        from repro.core.problem import Configuration, RuleState

        old_walk = Configuration(problem=problem).walk_from_source()
        assert old_walk.delivered and old_walk.traversed(problem.waypoint)
        new_states = {
            node: RuleState.NEW
            for node in problem.forwarding_nodes
        }
        new_walk = Configuration(problem=problem, states=new_states).walk_from_source()
        assert new_walk.delivered and new_walk.traversed(problem.waypoint)
