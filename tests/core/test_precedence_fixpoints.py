"""``PrecedenceAnalysis`` in k fixpoints against the k² reference.

The forced-order certificates quantify over every configuration with
``v`` still on its old rule.  The analysis used to build a choice table
and a least fixpoint from scratch for every ordered pair ``(u, v)``; it
now runs one fixpoint per certificate and ``u`` and continues it on
copies for the few ``v`` whose pin can matter.  Same ``forced_pairs`` and
``infeasible_reason`` as :func:`reference_precedence` (the pair-wise
analysis, kept under ``tests/``), on generated path pairs and on the
hardness families -- and a bound on the work, so that a change that
quietly goes back to a fixpoint per pair fails here and not only in the
perf ledger.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core import bnb, hardness, optimal
from repro.core.api import schedule_update
from repro.core.bnb import PrecedenceAnalysis
from repro.core.oracle import oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.topology.random_graphs import random_update_instance
from tests.core.generated import budget, update_problems
from tests.core.reference_exact import (
    TwinFlows,
    reference_precedence,
    reference_safe_singletons,
)
from tests.core.test_safe_singletons import PROPERTY_SETS

SIZES = (6, 8, 12, 16, 20, 24)
FAMILIES = {
    "reversal": hardness.reversal_instance,
    "sawtooth-2": lambda n: hardness.sawtooth_instance(n, 2),
    "sawtooth-3": lambda n: hardness.sawtooth_instance(n, 3),
    "crossing-clash": lambda n: hardness.crossing_clash_instance(max(n, 7)),
    "crossing-clash-3": lambda n: hardness.crossing_clash_instance(max(n, 7), 3),
    "slalom": lambda n: hardness.waypoint_slalom_instance(n // 2 - 1),
}
FIXED = {
    "crossing": hardness.crossing_instance,
    "double-diamond": hardness.double_diamond_instance,
    "twin-flows": TwinFlows,
}


def _agrees_with_the_pairwise_analysis(problem) -> None:
    for properties in PROPERTY_SETS:
        if Property.WPE in properties and problem.waypoint is None:
            continue
        analysis = PrecedenceAnalysis(problem, properties)
        reason, pairs = reference_precedence(problem, properties)
        context = (problem, properties)
        assert analysis.infeasible_reason == reason, context
        assert analysis.forced_pairs() == pairs, context


def test_every_hardness_family_is_listed():
    builders = {name for name in vars(hardness) if name.endswith("_instance")}
    assert builders == {
        "reversal_instance", "sawtooth_instance", "crossing_instance",
        "crossing_clash_instance", "waypoint_slalom_instance",
        "double_diamond_instance",
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hardness_families(family, n):
    _agrees_with_the_pairwise_analysis(FAMILIES[family](n))


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_instances(name):
    _agrees_with_the_pairwise_analysis(FIXED[name]())


@budget(40)
@given(update_problems())
def test_generated_path_pairs(problem):
    _agrees_with_the_pairwise_analysis(problem)


class TestWorkBound:
    """One ``optimal:slf`` solve of ``random_update_instance(16, seed=5)``
    (k = 15 required updates; the pair-wise analysis ran 225 fixpoints
    from scratch for it, and the singleton scan asked 442 of 717 oracle
    queries; learned nogoods answer 262 of them without a morph)."""

    @pytest.fixture
    def problem(self):
        old, new, _ = random_update_instance(16, seed=5)
        return UpdateProblem(old, new)

    def test_one_fixpoint_per_node_and_one_continuation_per_pin(
        self, problem, monkeypatch
    ):
        seeds, continued = [], []
        old_next = problem.old_next
        run = bnb._reach_fixpoint

        def watched(preds, remaining, forced, queue, any_node=None):
            [start] = queue
            if forced == {start}:
                seeds.append(start)
            else:
                # a pin: not forced before, its old next hop was
                assert start in forced and old_next[start] in forced - {start}
                continued.append((start, len(forced)))
            return run(preds, remaining, forced, queue, any_node)

        monkeypatch.setattr(bnb, "_reach_fixpoint", watched)
        result = schedule_update(problem, "optimal:slf")
        assert result.schedule.n_rounds == 3
        k = len(problem.canonical_updates)
        assert k == 15 and sorted(seeds) == sorted(problem.canonical_updates)
        pairs = bnb.precedence_for(problem, (Property.SLF,)).forced_pairs()
        # every continuation grew a finished fixpoint by at least its pin,
        # and there are few of them: 20 runs in all where there were 225
        assert all(size >= 2 for _, size in continued)
        assert len(pairs) <= len(continued) <= 2 * k

    def test_no_singleton_round_reaches_the_oracle(self, problem, monkeypatch):
        def solve(instance):
            schedule = schedule_update(instance, "optimal:slf").schedule
            oracle = oracle_for(instance, (Property.SLF,))
            return schedule.rounds, oracle

        rounds, oracle = solve(problem)
        width = len(oracle._bit_node)
        asked = [key & ((1 << width) - 1) for key in oracle._memo]
        assert asked and all(mask & (mask - 1) for mask in asked)

        def scan(search, state):  # what safe_singleton_mask used to be
            mask = reference_safe_singletons(search.round_ok, state, search.full)
            if mask & (mask - 1):
                search.round_ok(state, mask)
            return mask

        monkeypatch.setattr(optimal._MaskSearch, "safe_singleton_mask", scan)
        again = UpdateProblem(problem.old_path, problem.new_path)
        scanned_rounds, scanned = solve(again)
        assert scanned_rounds == rounds
        # 455 -> 37 (717 -> 275 before deepening learned nogoods): the
        # morphs left are rounds of two or more nodes, a question the
        # pass does not answer
        assert scanned.stats.memo_misses >= 2.5 * oracle.stats.memo_misses
