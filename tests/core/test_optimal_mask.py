"""Differential suite: the exact search vs the from-scratch reference.

``tests/core/reference_exact.py`` is a breadth-first search over node
sets that rebuilds the union graph for every verdict; it shares nothing
with the production DFS.  Both modes of the search (``"iddfs"``,
``"bnb"``) must agree with it on feasibility and on the optimal round
count -- free, under a ``round_filter`` and under ``max_rounds`` -- and
every schedule they return must pass :func:`verify_schedule` and a
round-by-round replay through ``round_is_safe_reference``.  Which of the
optimal schedules comes back is pinned separately, by
``test_exact_golden.py``; here only that a cold rerun returns the same
one.
"""

from __future__ import annotations

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
    is_feasible,
    minimal_round_count,
    minimal_round_schedule,
)
from repro.core.oracle import clear_registry
from repro.core.problem import UpdateProblem
from repro.core.verify import Property, verify_schedule
from repro.errors import InfeasibleUpdateError, VerificationError
from repro.topology.random_graphs import random_update_instance
from tests.core.reference_exact import (
    FILTERS,
    TwinFlows,
    reference_round_count,
    replay_is_safe,
)

_RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MODES = ("iddfs", "bnb")

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


def _solve_cold(problem, properties, search, **options):
    clear_registry()
    try:
        return minimal_round_schedule(problem, properties, search=search, **options)
    except InfeasibleUpdateError:
        return None


def assert_matches_reference(problem, properties, **options):
    """Both modes agree with the reference under ``options``; what they
    return is safe by two independent checks and stable across reruns."""
    expected = reference_round_count(problem, properties, **options)
    context = (properties, options, problem.old_path, problem.new_path)
    for search in MODES:
        schedule = _solve_cold(problem, properties, search, **options)
        if expected is None:
            assert schedule is None, (search, *context)
            continue
        assert schedule is not None, (search, *context)
        assert schedule.n_rounds == expected, (search, *context)
        assert replay_is_safe(problem, schedule, properties), (search, *context)
        if isinstance(problem, UpdateProblem):
            assert verify_schedule(schedule, properties=properties).ok
        rerun = _solve_cold(problem, properties, search, **options)
        assert rerun.rounds == schedule.rounds, (search, *context)


class TestBitIdenticalEquivalence:
    """Both modes vs the frozenset reference; cold reruns bit-identical."""

    @_RELAXED
    @given(instances())
    def test_matches_sets_reference(self, problem):
        if len(problem.required_updates) > 8:
            return
        for properties in ALL_PROPERTY_SETS:
            assert_matches_reference(problem, properties)

    @_RELAXED
    @given(instances(with_waypoint=True))
    def test_matches_sets_reference_with_waypoint(self, problem):
        if len(problem.required_updates) > 8:
            return
        for properties in WAYPOINT_PROPERTY_SETS:
            assert_matches_reference(problem, properties)

    @_RELAXED
    @given(
        instances(with_waypoint=True),
        st.sampled_from(sorted(FILTERS)),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_reference_under_filter_and_round_cap(
        self, problem, filter_name, max_rounds
    ):
        if len(problem.required_updates) > 6:
            return
        for properties in (
            (Property.SLF,),
            (Property.RLF, Property.BLACKHOLE),
            (Property.WPE,),
            (Property.WPE, Property.SLF),
        ):
            assert_matches_reference(
                problem, properties, round_filter=FILTERS[filter_name]
            )
            assert_matches_reference(problem, properties, max_rounds=max_rounds)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: reversal_instance(7),
            lambda: sawtooth_instance(9, 3),
            crossing_instance,
            double_diamond_instance,
            lambda: waypoint_slalom_instance(2),
        ],
    )
    def test_hardness_families_bit_identical(self, factory):
        problem = factory()
        sets_ = (
            WAYPOINT_PROPERTY_SETS
            if problem.waypoint is not None
            else ALL_PROPERTY_SETS
        )
        for properties in sets_:
            assert_matches_reference(problem, properties)


class TestIddfs:
    def test_round_counts_match_bfs(self):
        for factory, properties in [
            (lambda: reversal_instance(7), (Property.RLF,)),
            (lambda: reversal_instance(6), (Property.SLF,)),
            (crossing_instance, (Property.WPE,)),
            (
                double_diamond_instance,
                (Property.WPE, Property.SLF, Property.BLACKHOLE),
            ),
        ]:
            problem = factory()
            iddfs = minimal_round_schedule(problem, properties, search="iddfs")
            assert iddfs.n_rounds == reference_round_count(problem, properties)
            assert verify_schedule(iddfs, properties=properties).ok

    @_RELAXED
    @given(instances())
    def test_random_counts_match_bfs(self, problem):
        if len(problem.required_updates) > 6:
            return
        # what a caller who names no mode gets (deepening at this size)
        for properties in ((Property.RLF,), (Property.SLF,)):
            chosen = _solve_cold(problem, properties, search=None)
            rounds = None if chosen is None else chosen.n_rounds
            assert rounds == reference_round_count(problem, properties)

    def test_iddfs_infeasibility_matches(self):
        problem = crossing_instance()
        with pytest.raises(InfeasibleUpdateError):
            minimal_round_schedule(
                problem, (Property.WPE, Property.SLF), search="iddfs"
            )

    @pytest.mark.parametrize(
        "build, properties",
        [
            (lambda: reversal_instance(14), (Property.RLF,)),
            (lambda: reversal_instance(16), (Property.RLF,)),
            (lambda: reversal_instance(18), (Property.RLF,)),
            (lambda: sawtooth_instance(18, 4), (Property.RLF,)),
            # its update count is 4 whatever the size: only the nodes
            # next to the crossing switch
            (
                lambda: waypoint_slalom_instance(8),
                (Property.WPE, Property.BLACKHOLE),
            ),
        ],
        ids=["reversal-14", "reversal-16", "reversal-18", "sawtooth-18-4",
             "slalom-8"],
    )
    def test_lifts_the_old_cap(self, build, properties):
        # 13-17 required updates were beyond the seed-era default cap of
        # 12; the iddfs mode settles each in a few milliseconds
        schedule = minimal_round_schedule(build(), properties, search="iddfs")
        assert schedule.n_rounds == 3
        assert verify_schedule(schedule, properties=properties).ok


class TestSearchKnobValidation:
    def test_unknown_engine_and_search_rejected(self):
        problem = reversal_instance(6)
        for gone in ("bfs", "sets", "mask", "dfs?"):
            with pytest.raises(VerificationError, match="iddfs"):
                minimal_round_schedule(problem, (Property.SLF,), search=gone)
        for knob in ("engine", "use_oracle", "monotone_prune"):
            with pytest.raises(TypeError):
                minimal_round_schedule(problem, (Property.SLF,), **{knob: True})

    def test_mode_follows_size_and_budget(self, monkeypatch):
        """No caller names a mode: deepening up to 18 required updates,
        bounds above or under a budget -- for direct callers and
        ``optimal:<props>`` alike."""
        from repro.core import optimal
        from repro.core.api import schedule_update

        seen = []
        real = optimal.search_mask_bnb

        def spy(search, properties, max_rounds, **options):
            seen.append(options["bounds"])
            return real(search, properties, max_rounds, **options)

        monkeypatch.setattr(optimal, "search_mask_bnb", spy)
        small, large = reversal_instance(19), reversal_instance(20)
        assert len(small.required_updates) == optimal.DEEPENING_MAX_UPDATES
        minimal_round_schedule(small, (Property.RLF,))
        minimal_round_schedule(large, (Property.RLF,))
        minimal_round_schedule(small, (Property.RLF,), node_budget=10_000)
        schedule_update(small, "optimal:rlf", include_cleanup=False)
        schedule_update(large, "optimal:rlf", include_cleanup=False)
        schedule_update(small, "optimal:rlf?time_limit_s=30", include_cleanup=False)
        assert seen == [False, True, True, False, True, True]


class TestKwargThreading:
    """minimal_round_count / is_feasible used to drop these kwargs."""

    def test_round_filter_threads_through_count(self):
        problem = reversal_instance(6)
        sequential_only = lambda updated, round_nodes: len(round_nodes) == 1
        free = minimal_round_count(problem, (Property.SLF,))
        forced = minimal_round_count(
            problem, (Property.SLF,), round_filter=sequential_only
        )
        assert free == 4
        assert forced == len(problem.required_updates) == 5

    def test_max_rounds_threads_through_is_feasible(self):
        problem = reversal_instance(6)
        assert is_feasible(problem, (Property.SLF,))
        assert not is_feasible(problem, (Property.SLF,), max_rounds=2)

    def test_round_filter_threads_through_is_feasible(self):
        problem = crossing_instance()
        # node 4 must move before node 2 under WPE; forbid that order
        two_before_four = lambda updated, rn: not (
            4 in rn and not (2 in updated or 2 in rn)
        )
        assert is_feasible(problem, (Property.WPE,))
        assert not is_feasible(
            problem, (Property.WPE,), round_filter=two_before_four
        )


class TestTwinFlows:
    def test_twin_flows_search_matches_reference(self):
        problem = TwinFlows()
        assert reference_round_count(problem, (Property.SLF,)) == 2
        assert_matches_reference(problem, (Property.SLF,))
        assert_matches_reference(problem, (Property.RLF,))
