"""Equivalence tests: the incremental SafetyOracle vs the from-scratch verifiers.

Every verdict the delta-maintained oracle produces must be bit-identical
to the reference implementation that rebuilds the union graph per query
(:func:`round_is_safe_reference` and the ``check_*`` verifiers).  The
randomized suites drive both through random instances, random round
splits and random apply/commit/revert walks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hardness import (
    crossing_instance,
    double_diamond_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.optimal import (
    minimal_round_schedule,
    round_is_safe,
    round_is_safe_reference,
)
from repro.core import oracle as oracle_module
from repro.core.oracle import SafetyOracle, aggregate_stats, oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.core.wayup import wayup_schedule
from repro.errors import InfeasibleUpdateError, VerificationError
from repro.topology.random_graphs import random_update_instance
from tests.core.reference_exact import reference_round_count

_RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALL_PROPERTY_SETS = [
    (Property.SLF,),
    (Property.RLF,),
    (Property.BLACKHOLE,),
    (Property.SLF, Property.BLACKHOLE),
    (Property.RLF, Property.BLACKHOLE),
]
WAYPOINT_PROPERTY_SETS = ALL_PROPERTY_SETS + [
    (Property.WPE,),
    (Property.WPE, Property.BLACKHOLE),
    (Property.WPE, Property.SLF),
    (Property.WPE, Property.RLF),
]


@st.composite
def instances(draw, with_waypoint: bool = False):
    n = draw(st.integers(min_value=4, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    overlap = draw(st.floats(min_value=0.0, max_value=1.0))
    old, new, waypoint = random_update_instance(
        n, seed=seed, overlap=overlap, with_waypoint=with_waypoint
    )
    return UpdateProblem(old, new, waypoint=waypoint if with_waypoint else None)


def _random_round_queries(problem, rng, count=12):
    """Random ``(updated, round_nodes)`` pairs over the problem's updates."""
    pool = sorted(problem.all_updates, key=repr)
    queries = []
    for _ in range(count):
        if not pool:
            break
        k = rng.randint(0, len(pool))
        updated = set(rng.sample(pool, k))
        rest = [n for n in pool if n not in updated]
        if not rest:
            continue
        round_nodes = set(rng.sample(rest, rng.randint(1, len(rest))))
        queries.append((updated, round_nodes))
    return queries


class TestVerdictEquivalence:
    @_RELAXED
    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_reference_on_random_queries(self, problem, seed):
        rng = random.Random(seed)
        for properties in ALL_PROPERTY_SETS:
            oracle = SafetyOracle(problem, properties)
            for updated, round_nodes in _random_round_queries(problem, rng):
                expected = round_is_safe_reference(
                    problem, set(updated), set(round_nodes), properties
                )
                got = oracle.round_is_safe(updated, round_nodes)
                assert got == expected, (
                    properties, problem.old_path, problem.new_path,
                    updated, round_nodes,
                )

    @_RELAXED
    @given(
        instances(with_waypoint=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_reference_with_waypoint(self, problem, seed):
        rng = random.Random(seed)
        for properties in WAYPOINT_PROPERTY_SETS:
            oracle = SafetyOracle(problem, properties)
            for updated, round_nodes in _random_round_queries(problem, rng):
                expected = round_is_safe_reference(
                    problem, set(updated), set(round_nodes), properties
                )
                got = oracle.round_is_safe(updated, round_nodes)
                assert got == expected, (
                    properties, problem.old_path, problem.new_path,
                    updated, round_nodes,
                )

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: reversal_instance(8),
            lambda: sawtooth_instance(10, 4),
            crossing_instance,
            double_diamond_instance,
            lambda: waypoint_slalom_instance(3),
        ],
    )
    def test_matches_reference_on_hardness_families(self, factory):
        problem = factory()
        rng = random.Random(1234)
        sets = (
            WAYPOINT_PROPERTY_SETS
            if problem.waypoint is not None
            else ALL_PROPERTY_SETS
        )
        for properties in sets:
            oracle = SafetyOracle(problem, properties)
            for updated, round_nodes in _random_round_queries(problem, rng, 20):
                expected = round_is_safe_reference(
                    problem, set(updated), set(round_nodes), properties
                )
                assert oracle.round_is_safe(updated, round_nodes) == expected


class TestDeltaWalkEquivalence:
    """apply/commit/revert walks must track the from-scratch verdicts."""

    @_RELAXED
    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_walk_matches_reference(self, problem, seed):
        rng = random.Random(seed)
        pool = sorted(problem.all_updates, key=repr)
        if not pool:
            return
        for properties in ((Property.SLF,), (Property.RLF, Property.BLACKHOLE)):
            oracle = SafetyOracle(problem, properties)
            updated: set = set()
            flex: set = set()
            for _ in range(30):
                op = rng.random()
                if op < 0.5 and (set(pool) - updated - flex):
                    node = rng.choice(sorted(set(pool) - updated - flex, key=repr))
                    oracle.apply(node)
                    flex.add(node)
                elif op < 0.75 and flex:
                    node = rng.choice(sorted(flex, key=repr))
                    oracle.commit(node)
                    flex.discard(node)
                    updated.add(node)
                elif flex:
                    node = rng.choice(sorted(flex, key=repr))
                    oracle.revert(node)
                    flex.discard(node)
                else:
                    continue
                expected = round_is_safe_reference(
                    problem, set(updated), set(flex), properties
                )
                assert oracle.current_round_safe() == expected, (
                    properties, problem.old_path, problem.new_path,
                    updated, flex,
                )
                assert oracle.updated_nodes() == frozenset(updated)
                assert oracle.in_flight_nodes() == frozenset(flex)

    def test_try_apply_reverts_on_unsafe(self):
        problem = reversal_instance(6)
        oracle = SafetyOracle(problem, (Property.SLF,))
        oracle.reset()
        # flipping an interior backward node alone closes a 2-cycle
        assert not oracle.try_apply(3)
        assert oracle.in_flight_nodes() == frozenset()
        assert oracle.current_round_safe()


class TestExactSearchEquivalence:
    @_RELAXED
    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_minimal_rounds_match_reference_path(self, problem, seed):
        del seed
        if not problem.required_updates or len(problem.required_updates) > 7:
            return
        for properties in ((Property.RLF,), (Property.SLF,)):
            try:
                fast = minimal_round_schedule(problem, properties).n_rounds
            except InfeasibleUpdateError:
                fast = None
            assert fast == reference_round_count(problem, properties)

    def test_crossing_infeasibility_matches(self):
        problem = crossing_instance()
        properties = (Property.WPE, Property.SLF)
        with pytest.raises(InfeasibleUpdateError):
            minimal_round_schedule(problem, properties)
        assert reference_round_count(problem, properties) is None


class TestMemoAndRegistry:
    def test_memo_hits_count(self):
        problem = reversal_instance(6)
        oracle = SafetyOracle(problem, (Property.SLF,))
        assert oracle.round_is_safe(set(), {2}) == oracle.round_is_safe(set(), {2})
        assert oracle.stats.memo_misses == 1
        assert oracle.stats.memo_hits == 1
        assert oracle.memo_size() == 1
        oracle.clear_memo()
        assert oracle.memo_size() == 0

    def test_shared_oracle_reuses_memo_across_call_sites(self):
        problem = reversal_instance(6)
        first = oracle_for(problem, (Property.RLF,))
        baseline = first.stats.memo_misses
        round_is_safe(problem, set(), {2}, (Property.RLF,))
        round_is_safe(problem, set(), {2}, (Property.RLF,))
        assert oracle_for(problem, (Property.RLF,)) is first
        assert first.stats.memo_misses == baseline + 1
        assert first.stats.memo_hits >= 1

    def test_distinct_modes_get_distinct_oracles(self):
        problem = reversal_instance(6)
        exact = oracle_for(problem, (Property.RLF,), exact_rlf=True)
        conservative = oracle_for(problem, (Property.RLF,), exact_rlf=False)
        assert exact is not conservative

    def test_property_order_shares_one_oracle(self):
        problem = reversal_instance(6)
        forward = oracle_for(problem, (Property.SLF, Property.BLACKHOLE))
        backward = oracle_for(problem, (Property.BLACKHOLE, Property.SLF))
        assert forward is backward

    def test_oracles_die_with_their_problem(self):
        import gc
        import weakref

        problem = reversal_instance(6)
        oracle = oracle_for(problem, (Property.SLF,))
        grave = weakref.ref(oracle)
        del oracle, problem
        gc.collect()
        assert grave() is None

    def test_memo_limit_eviction(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "DEFAULT_MEMO_LIMIT", 2)
        problem = reversal_instance(6)
        oracle = SafetyOracle(problem, (Property.SLF,))
        for node in (2, 3, 4):
            oracle.round_is_safe(set(), {node})
        assert oracle.stats.memo_evictions >= 1
        assert oracle.memo_size() <= 2

    def test_aggregate_stats_sums_registered_oracles(self):
        problem = reversal_instance(6)
        oracle = oracle_for(problem, (Property.SLF,))
        before = aggregate_stats().memo_misses
        oracle.round_is_safe(set(), {problem.old_path.nodes[1]})
        assert aggregate_stats().memo_misses >= before

    def test_rejects_empty_properties_and_waypointless_wpe(self):
        problem = reversal_instance(6)
        with pytest.raises(VerificationError):
            SafetyOracle(problem, ())
        with pytest.raises(VerificationError):
            SafetyOracle(problem, (Property.WPE,))

    def test_schedulers_reject_mismatched_oracle(self):
        from repro.core.greedy_slf import greedy_slf_schedule

        problem = reversal_instance(6)
        other = reversal_instance(7)
        with pytest.raises(VerificationError):
            greedy_slf_schedule(problem, oracle=oracle_for(other, (Property.SLF,)))
        with pytest.raises(VerificationError):
            greedy_slf_schedule(problem, oracle=oracle_for(problem, (Property.RLF,)))
        with pytest.raises(VerificationError):
            round_is_safe(
                problem,
                set(),
                {2},
                (Property.SLF,),
                oracle=oracle_for(problem, (Property.RLF,)),
            )


class TestFrontiers:
    def test_forward_frontier_tracks_old_path(self):
        problem = reversal_instance(6)
        oracle = SafetyOracle(problem, (Property.SLF,))
        oracle.reset()
        assert oracle.forward_frontier() == frozenset(problem.old_path.nodes)

    def test_frontier_extends_incrementally_on_apply(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        oracle = SafetyOracle(problem, (Property.BLACKHOLE,))
        oracle.reset()
        assert 4 not in oracle.forward_frontier()
        oracle.apply(1)  # the source may now jump to the fresh node
        assert 4 in oracle.forward_frontier()
        assert oracle.stats.frontier_extensions >= 1


def assert_wayup_rounds_pass_the_oracle(schedule) -> None:
    """Every WayUp round is safe for WPE + blackhole freedom."""
    oracle = oracle_for(schedule.problem, (Property.WPE, Property.BLACKHOLE))
    done: set = set()
    for nodes in schedule.rounds:
        assert oracle.round_is_safe(done, nodes), (schedule, nodes)
        done |= nodes


class TestWayUpOracleCheck:
    def test_oracle_accepts_wayup_schedules(self):
        for factory in (
            crossing_instance,
            double_diamond_instance,
            lambda: waypoint_slalom_instance(4),
        ):
            schedule = wayup_schedule(factory())
            assert schedule.n_rounds >= 1
            assert_wayup_rounds_pass_the_oracle(schedule)

    @_RELAXED
    @given(instances(with_waypoint=True))
    def test_oracle_accepts_random_waypointed_instances(self, problem):
        from repro.errors import UpdateModelError

        try:
            schedule = wayup_schedule(problem)
        except UpdateModelError as exc:
            assert "no rule changes" in str(exc)
            return
        assert_wayup_rounds_pass_the_oracle(schedule)
