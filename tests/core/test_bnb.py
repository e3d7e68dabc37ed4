"""Equivalence and soundness suite for the branch-and-bound exact engine.

Three contracts are pinned here:

* **equivalence** -- ``search="bnb"`` must agree with the from-scratch
  BFS of ``reference_exact.py`` (and with the plain deepening mode) on
  optimal round counts for every feasible instance, and on infeasibility
  verdicts, randomized and on the hardness families;
* **certificate soundness** -- the forced-order precedence relation and
  the rounds lower bound must never contradict the exhaustive search
  (admissibility), and the polynomial infeasibility certificates must
  only fire on genuinely infeasible instances;
* **nogood correctness** -- every pattern the oracle learns must encode
  a genuine violation (checked against the from-scratch reference
  verifier over *all* matching states), and a learned table must never
  change results, including under ``round_filter``; plain deepening
  learns too, and ``nogood_limit=0`` learns nothing.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bnb import (
    infeasibility_certificate,
    precedence_for,
    rounds_lower_bound,
)
from repro.core.hardness import (
    crossing_clash_instance,
    crossing_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.optimal import (
    DEEPENING_MAX_UPDATES,
    is_feasible,
    minimal_round_count,
    minimal_round_schedule,
    round_is_safe_reference,
)
from repro.core.oracle import SafetyOracle, clear_registry, oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property, verify_schedule
from repro.errors import ExactSearchBudgetError, InfeasibleUpdateError
from repro.topology.random_graphs import random_update_instance
from tests.core.reference_exact import reference_round_count

_RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PROPERTY_SETS = [
    (Property.SLF,),
    (Property.RLF,),
    (Property.BLACKHOLE,),
    (Property.SLF, Property.BLACKHOLE),
    (Property.RLF, Property.BLACKHOLE),
]
WAYPOINT_PROPERTY_SETS = PROPERTY_SETS + [
    (Property.WPE,),
    (Property.WPE, Property.BLACKHOLE),
    (Property.WPE, Property.SLF),
    (Property.WPE, Property.RLF),
    (Property.WPE, Property.SLF, Property.BLACKHOLE),
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


def _rounds_or_none(problem, properties, **kwargs):
    try:
        return minimal_round_schedule(problem, properties, **kwargs).n_rounds
    except InfeasibleUpdateError:
        return None


class TestCrossEngineEquivalence:
    @_RELAXED
    @given(instances())
    def test_random_instances_match_bfs(self, problem):
        if len(problem.required_updates) > 8:
            return
        for properties in PROPERTY_SETS:
            reference = reference_round_count(problem, properties)
            clear_registry()
            bnb = _rounds_or_none(problem, properties, search="bnb")
            assert bnb == reference, (properties, problem.old_path, problem.new_path)

    @_RELAXED
    @given(instances(with_waypoint=True))
    def test_random_waypointed_instances_match_bfs(self, problem):
        if len(problem.required_updates) > 8:
            return
        for properties in WAYPOINT_PROPERTY_SETS:
            reference = reference_round_count(problem, properties)
            clear_registry()
            bnb = _rounds_or_none(problem, properties, search="bnb")
            assert bnb == reference, (properties, problem.old_path, problem.new_path)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: reversal_instance(8),
            lambda: reversal_instance(14),
            lambda: sawtooth_instance(12, 3),
            lambda: sawtooth_instance(14, 4),
            crossing_instance,
            lambda: waypoint_slalom_instance(3),
            lambda: crossing_clash_instance(9),
            lambda: crossing_clash_instance(12),
        ],
    )
    def test_hardness_families_match_iddfs(self, factory):
        problem = factory()
        sets_ = (
            WAYPOINT_PROPERTY_SETS
            if problem.waypoint is not None
            else PROPERTY_SETS
        )
        for properties in sets_:
            iddfs = _rounds_or_none(problem, properties, search="iddfs")
            bnb = _rounds_or_none(problem, properties, search="bnb")
            assert bnb == iddfs, (problem.name, properties)

    def test_bnb_schedules_verify(self):
        for factory, properties in [
            (lambda: reversal_instance(10), (Property.SLF,)),
            (lambda: reversal_instance(12), (Property.RLF,)),
            (lambda: sawtooth_instance(12, 3), (Property.SLF,)),
            (crossing_instance, (Property.WPE,)),
        ]:
            schedule = minimal_round_schedule(
                factory(), properties, search="bnb"
            )
            assert verify_schedule(schedule, properties=properties).ok

    def test_lifts_the_cap_to_24(self):
        # 23 required updates: above both the seed cap (12) and the
        # IDDFS-era cap (18), inside the new default of 24
        schedule = minimal_round_schedule(
            reversal_instance(24), (Property.RLF,), search="bnb"
        )
        assert schedule.n_rounds == 3
        assert verify_schedule(schedule, properties=(Property.RLF,)).ok
        # forced-linear worst case: incumbent meets the chain bound
        forced = minimal_round_schedule(
            reversal_instance(24), (Property.SLF,), search="bnb"
        )
        assert forced.n_rounds == 22


class TestLowerBound:
    def test_precedence_analysis_lives_in_the_oracle_cache(self):
        from repro.core.oracle import _CACHE_ATTR

        problem = reversal_instance(8)
        clear_registry()
        analysis = precedence_for(problem, (Property.SLF,))
        assert precedence_for(problem, (Property.SLF,)) is analysis
        oracle = oracle_for(problem, (Property.SLF,))
        assert set(vars(problem)[_CACHE_ATTR].values()) == {analysis, oracle}
        clear_registry()
        assert _CACHE_ATTR not in vars(problem)
        assert precedence_for(problem, (Property.SLF,)) is not analysis

    @_RELAXED
    @given(instances(with_waypoint=True))
    def test_admissible_on_random_instances(self, problem):
        if len(problem.required_updates) > 7:
            return
        for properties in (
            (Property.SLF,),
            (Property.WPE,),
            (Property.WPE, Property.SLF),
        ):
            optimum = reference_round_count(problem, properties)
            if optimum is None:
                continue
            clear_registry()
            bound = rounds_lower_bound(problem, properties)
            assert bound <= optimum, (properties, problem.old_path, problem.new_path)

    def test_forced_linear_chain_is_exact(self):
        for n in (6, 10, 16, 24):
            problem = reversal_instance(n)
            assert rounds_lower_bound(problem, (Property.SLF,)) == n - 2

    def test_noop_instance_is_zero(self):
        problem = UpdateProblem([1, 2, 3], [1, 2, 3])
        assert rounds_lower_bound(problem, (Property.SLF,)) == 0

    def test_infeasible_instances_raise(self):
        with pytest.raises(InfeasibleUpdateError):
            rounds_lower_bound(
                crossing_instance(), (Property.WPE, Property.SLF)
            )

    def test_short_circuit_applies_to_every_engine(self):
        problem = crossing_instance()
        properties = (Property.WPE, Property.SLF)
        for knobs in (
            {},
            {"search": "iddfs"},
            {"search": "bnb"},
            {"max_rounds": 2},
        ):
            assert not is_feasible(problem, properties, **knobs)
            with pytest.raises(InfeasibleUpdateError):
                minimal_round_count(problem, properties, **knobs)


class TestClashFamily:
    def test_certificate_fires(self):
        for n in (9, 16, 20, 24):
            certificate = infeasibility_certificate(
                crossing_clash_instance(n), (Property.WPE, Property.SLF)
            )
            assert certificate is not None, n

    def test_certificate_matches_search_verdict(self):
        # small enough for the exhaustive engines to confirm
        for n in (9, 11):
            problem = crossing_clash_instance(n)
            assert not is_feasible(
                problem, (Property.WPE, Property.SLF), search="iddfs"
            )

    def test_feasible_under_weaker_properties(self):
        # the clash is specific to WPE+SLF: each property alone schedules
        problem = crossing_clash_instance(12)
        iddfs = minimal_round_count(problem, (Property.SLF,), search="iddfs")
        bnb = minimal_round_count(problem, (Property.SLF,), search="bnb")
        assert iddfs == bnb
        assert infeasibility_certificate(problem, (Property.SLF,)) is None

    def test_infeasibility_proof_is_fast_at_scale(self):
        # the gate behind the satellite short-circuit: the default (BFS)
        # engine would need hours on 19 updates without the certificate
        problem = crossing_clash_instance(20)
        started = time.perf_counter()
        assert not is_feasible(problem, (Property.WPE, Property.SLF))
        assert time.perf_counter() - started < 5.0


class TestAnytimeInterval:
    def test_budget_exhaustion_reports_sound_interval(self):
        problem = sawtooth_instance(16, 4)
        properties = (Property.RLF,)
        clear_registry()
        optimum = minimal_round_schedule(
            problem, properties, search="bnb"
        ).n_rounds
        clear_registry()
        with pytest.raises(ExactSearchBudgetError) as excinfo:
            minimal_round_schedule(
                problem, properties, search="bnb", node_budget=3
            )
        error = excinfo.value
        assert error.lower <= optimum
        assert error.upper is not None and optimum <= error.upper
        assert error.nodes_expanded > 0

    def test_time_limit_raises_with_interval(self):
        problem = sawtooth_instance(16, 4)
        clear_registry()
        with pytest.raises(ExactSearchBudgetError) as excinfo:
            minimal_round_schedule(
                problem, (Property.RLF,), search="bnb", time_limit_s=-1.0
            )
        assert excinfo.value.lower >= 1

    def test_time_limit_is_polled_inside_the_round_enumeration(self, monkeypatch):
        # random-22/seed 11 under RLF: no forced-order certificate prunes
        # a round, all 21 updates are safe alone, and the second search
        # node asks thousands of candidate rounds before it expands
        # another; a clock looked at once per node let 32,803 rounds pass
        # before it noticed a 50 ms limit
        from types import SimpleNamespace

        from repro.core import bnb, optimal

        old, new, _ = random_update_instance(22, seed=11)
        problem = UpdateProblem(old.nodes, new.nodes)
        properties = (Property.RLF,)
        clear_registry()
        clock = SimpleNamespace(now=0.0, reads=0)

        def monotonic():  # every look at the clock costs 10 ms
            clock.reads += 1
            clock.now += 0.01
            return clock.now

        asked = []
        real_round_ok = optimal._MaskSearch.round_ok
        monkeypatch.setattr(
            optimal._MaskSearch, "round_ok",
            lambda search, state, rmask: asked.append(rmask)
            or real_round_ok(search, state, rmask),
        )
        monkeypatch.setattr(bnb, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(ExactSearchBudgetError) as excinfo:
            minimal_round_schedule(
                problem, properties, search="bnb", time_limit_s=0.05
            )
        assert excinfo.value.lower >= 2 and excinfo.value.upper == 4
        # the limit is five clock reads away, so about five poll
        # intervals of candidate rounds were asked (32,803 with no poll
        # inside the enumeration)
        assert clock.reads <= 8
        assert len(asked) <= 6 * bnb._DEADLINE_POLL_EVERY

    def test_every_expansion_looks_at_the_clock(self, monkeypatch):
        # an expansion can cost a singleton sweep (~0.7 ms at n = 24) and
        # a leaf (one round left) returns before the round enumeration,
        # so a clock read only there let 1023 leaves pass between two
        # looks: a 0.05 s limit on crossing-clash-24 came back after
        # 0.255 s
        from types import SimpleNamespace

        from repro.core import bnb

        problem = crossing_clash_instance(12)
        clear_registry()
        counts = SimpleNamespace(reads=0, expansions=0)

        def monotonic():
            counts.reads += 1
            return 0.0

        def tracing_enabled():
            # with a milestone every expansion, each one asks this once
            counts.expansions += 1
            return False

        monkeypatch.setattr(bnb, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(bnb, "_MILESTONE_EVERY", 1)
        monkeypatch.setattr(
            bnb, "obs", SimpleNamespace(tracing_enabled=tracing_enabled)
        )
        minimal_round_schedule(
            problem, (Property.RLF,), search="bnb", time_limit_s=60.0
        )
        assert counts.expansions > 20
        # one read sets the deadline; then at least one per expansion
        assert counts.reads - 1 >= counts.expansions

    def test_matching_bounds_return_instead_of_raising(self):
        # greedy incumbent == chain bound: proven optimal with zero
        # expansions, so even a zero-ish budget succeeds
        schedule = minimal_round_schedule(
            reversal_instance(20), (Property.SLF,), search="bnb",
            node_budget=1,
        )
        assert schedule.n_rounds == 18


def _matching_queries(width, need_new, need_old):
    """All ``(updated, round)`` int pairs a nogood pattern matches."""
    for updated in range(1 << width):
        for round_mask in range(1 << width):
            if updated & round_mask:
                continue  # queries keep the two sets disjoint
            if need_new & ~(updated | round_mask):
                continue
            if need_old & updated & ~round_mask:
                continue
            yield updated, round_mask


def _learn_by_enumeration(problem, properties):
    """A freshly warmed oracle: every query of the small instance issued
    with learning on, so the table holds whatever patterns exist."""
    clear_registry()
    oracle = oracle_for(problem, properties)
    oracle.enable_nogood_learning()
    width = len(problem.canonical_updates)
    for updated in range(1 << width):
        for round_mask in range(1 << width):
            if updated & round_mask or not round_mask:
                continue
            oracle.round_is_safe(updated, round_mask)
    return oracle


class TestNogoodCorrectness:
    @pytest.mark.parametrize(
        "factory, properties",
        [
            (lambda: reversal_instance(6), (Property.SLF,)),
            (lambda: reversal_instance(6), (Property.RLF,)),
            (lambda: reversal_instance(6), (Property.BLACKHOLE, Property.SLF)),
            (crossing_instance, (Property.WPE, Property.SLF)),
            (crossing_instance, (Property.WPE, Property.BLACKHOLE)),
            (crossing_instance, (Property.WPE, Property.RLF)),
        ],
    )
    def test_learned_patterns_are_genuine_violations(self, factory, properties):
        problem = factory()
        oracle = _learn_by_enumeration(problem, properties)
        assert oracle.nogoods(), "expected the enumeration to learn patterns"
        width = len(problem.canonical_updates)
        decode = oracle.nodes_of
        for need_new, need_old in oracle.nogoods():
            for updated, round_mask in _matching_queries(
                width, need_new, need_old
            ):
                if not round_mask:
                    continue
                assert not round_is_safe_reference(
                    problem,
                    set(decode(updated)),
                    set(decode(round_mask)),
                    properties,
                ), (need_new, need_old, updated, round_mask)

    def test_search_learns_patterns_when_it_expands(self):
        # random-14/seed 1 under RLF has chain bound 1 < optimum 2, so the
        # search genuinely expands states, hits unsafe rounds, and learns
        # (on forced-linear SLF instances the bound is exact and the
        # search returns the incumbent with zero expansions -- nothing to
        # learn; RLF sawtooth-16-4 no longer asks an unsafe round either)
        old, new, _ = random_update_instance(14, seed=1)
        problem = UpdateProblem(old, new)
        clear_registry()
        minimal_round_schedule(problem, (Property.RLF,), search="bnb")
        oracle = oracle_for(problem, (Property.RLF,))
        assert oracle.nogoods()
        assert oracle.stats.nogood_hits > 0

    def test_no_false_prunes_under_round_filter(self):
        problem = reversal_instance(6)
        properties = (Property.SLF,)
        sequential_only = lambda updated, round_nodes: len(round_nodes) == 1
        # pollute the shared oracle's table first, then search filtered
        oracle = _learn_by_enumeration(problem, properties)
        assert oracle.nogoods()
        filtered_bnb = minimal_round_count(
            problem, properties, round_filter=sequential_only, search="bnb"
        )
        filtered_reference = reference_round_count(
            problem, properties, round_filter=sequential_only
        )
        assert filtered_bnb == filtered_reference == 5

    def test_learned_table_does_not_change_greedy_results(self):
        from repro.core.combined import combined_greedy_schedule

        problem = reversal_instance(8)
        properties = (Property.SLF,)
        clear_registry()
        baseline = combined_greedy_schedule(
            problem, properties, include_cleanup=False
        )
        oracle = _learn_by_enumeration(problem, properties)
        assert oracle.nogoods()
        warmed = combined_greedy_schedule(
            problem, properties, include_cleanup=False, oracle=oracle
        )
        assert warmed.rounds == baseline.rounds

    def test_clear_nogoods_empties_the_table(self):
        problem = reversal_instance(6)
        oracle = _learn_by_enumeration(problem, (Property.SLF,))
        assert oracle.nogoods()
        oracle.clear_nogoods()
        assert not oracle.nogoods()

    def test_nogood_limit_zero_disables_learning(self):
        problem = reversal_instance(6)
        clear_registry()
        minimal_round_schedule(
            problem, (Property.SLF,), search="bnb", nogood_limit=0
        )
        assert not oracle_for(problem, (Property.SLF,)).nogoods()

    def test_nogood_limit_zero_cleans_a_warm_oracle(self):
        # a nogood-free cross-check after a learning run must not keep
        # consulting (or extending) the previously learned table
        old, new, _ = random_update_instance(14, seed=1)
        problem = UpdateProblem(old, new)
        properties = (Property.RLF,)
        clear_registry()
        minimal_round_schedule(problem, properties, search="bnb")
        oracle = oracle_for(problem, properties)
        assert oracle.nogoods()
        minimal_round_schedule(
            problem, properties, search="bnb", nogood_limit=0
        )
        assert not oracle.nogoods()
        assert oracle.nogood_limit == 0

    def test_bnb_only_knobs_rejected_on_other_searches(self):
        from repro.errors import VerificationError

        problem = reversal_instance(6)
        for knob in (
            {"node_budget": 10},
            {"time_limit_s": 1.0},
            {"nogood_limit": 8},
        ):
            with pytest.raises(VerificationError, match="branch-and-bound"):
                minimal_round_schedule(
                    problem, (Property.SLF,), search="iddfs", **knob
                )

    def test_certificates_short_circuit_iddfs_and_bfs_schedules(self):
        # a certified clash must answer from the certificate in every
        # mode, not by exhausting the state space -- clash-24 would take
        # tens of seconds of plain deepening otherwise
        problem = crossing_clash_instance(24)
        started = time.perf_counter()
        for search in ("iddfs", "bnb", None):
            with pytest.raises(InfeasibleUpdateError):
                minimal_round_schedule(
                    problem, (Property.WPE, Property.SLF), search=search
                )
        assert time.perf_counter() - started < 2.0


class TestLearningInDeepening:
    """Plain deepening learns nogoods too: ``random_update_instance(16,
    seed=5)`` has k = 15 required updates, so its default mode is
    ``iddfs``, and its SLF solve finds dozens of multi-node rounds
    unsafe."""

    PROPERTIES = (Property.SLF,)

    @pytest.fixture
    def problem(self):
        old, new, _ = random_update_instance(16, seed=5)
        clear_registry()
        return UpdateProblem(old, new)

    def test_default_mode_learns(self, problem):
        assert len(problem.required_updates) <= DEEPENING_MAX_UPDATES
        minimal_round_schedule(problem, self.PROPERTIES)
        oracle = oracle_for(problem, self.PROPERTIES)
        assert oracle.nogoods()
        assert oracle.stats.nogood_hits > 0

    def test_nogood_limit_zero_clears_what_deepening_learned(self, problem):
        learned = minimal_round_schedule(problem, self.PROPERTIES)
        oracle = oracle_for(problem, self.PROPERTIES)
        assert oracle.nogoods()
        bare = minimal_round_schedule(problem, self.PROPERTIES, nogood_limit=0)
        assert not oracle.nogoods() and oracle.nogood_limit == 0
        assert bare.rounds == learned.rounds

    @pytest.mark.parametrize(
        "build, rounds, most_misses, most_passes, most_hits",
        [
            # reads 13 / 3 / 83; the rounds hold required updates only
            # (cleanup is a third)
            (
                lambda: UpdateProblem(*random_update_instance(16, seed=5)[:2]),
                2, 20, 10, 100,
            ),
            # reads 2 / 3 / 0
            (lambda: crossing_clash_instance(16), 3, 8, 10, 10),
        ],
        ids=["random-16-5", "clash-16"],
    )
    def test_work_bound(
        self, build, rounds, most_misses, most_passes, most_hits, monkeypatch
    ):
        """Counts, so they hold on any machine: the oracle misses (graph
        morphs), the read-only singleton passes (which touch no oracle
        counter, so they are counted here) and the nogood hits of one
        default-mode solve."""
        passes = 0
        real = SafetyOracle.safe_singletons

        def counted(oracle, updated_mask):
            nonlocal passes
            passes += 1
            return real(oracle, updated_mask)

        monkeypatch.setattr(SafetyOracle, "safe_singletons", counted)
        problem = build()
        clear_registry()
        schedule = minimal_round_schedule(problem, self.PROPERTIES)
        assert schedule.n_rounds == rounds
        stats = oracle_for(problem, self.PROPERTIES).stats
        assert stats.memo_misses <= most_misses
        assert passes <= most_passes
        assert stats.nogood_hits <= most_hits


class TestRegistryIntegration:
    def test_bnb_reachable_through_specs(self):
        from repro.core.api import schedule_update

        # a budget in the spec is what selects the bounds mode: only it
        # can run out of nodes, and only it proves reversal-20 under SLF
        # optimal (greedy incumbent == chain bound) without expanding one
        with pytest.raises(ExactSearchBudgetError) as excinfo:
            schedule_update(
                sawtooth_instance(16, 4), "optimal:rlf?node_budget=3",
                include_cleanup=False,
            )
        assert excinfo.value.lower <= 3 <= excinfo.value.upper
        result = schedule_update(
            reversal_instance(20), "optimal:slf?node_budget=1",
            include_cleanup=False,
        )
        assert result.schedule.n_rounds == 18

    def test_large_instances_default_to_bnb(self):
        from repro.core.api import schedule_update

        # 20 required updates: above DEEPENING_MAX_UPDATES, inside the
        # cap -- the plain spec must run with bounds and nogoods
        result = schedule_update(
            reversal_instance(21), "optimal:rlf", include_cleanup=False
        )
        assert result.schedule.n_rounds == 3

    def test_bnb_only_params_select_the_engine(self):
        from repro.core.api import schedule_update

        result = schedule_update(
            reversal_instance(10),
            "optimal:rlf?nogood_limit=64",
            include_cleanup=False,
        )
        assert result.schedule.n_rounds == 3
