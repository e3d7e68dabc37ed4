"""The churn planner judges a round once and plans exactly as before.

``OnlineChurnController._plan_round`` admits the candidates that pass its
refusals (a required update ``safe_singletons`` clears, a cleanup the
source does not reach) in ``sorted(..., key=repr)`` order, applies them
all and asks ``current_round_safe()`` once.  Only an unsafe verdict
makes it revert them and grow the round one ``try_apply`` at a time.
A verdict is monotone in the in-flight set, so a safe batch is what the
one-at-a-time loop would have kept.

Here the planner is held to that loop (:func:`one_by_one_plan_round`, a
copy of the planner before the batch judgment) on the scheduled golden
rows and on generated fat-tree and WAN traces under preempt and defer:
``run_churn(...).to_dict()``, lifecycles included, must be equal, and
the unsafe-verdict fallback must run at least once over the set.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.churn.controller import (
    PLAN_LATENCY_MS,
    PLANNING,
    ChurnPolicy,
    OnlineChurnController,
    run_churn,
)
from repro.churn.traces import generate_trace
from repro.core.deadline import check_deadline
from repro.core.oracle import SafetyOracle
from tests.churn.test_controller import GOLDEN_ROWS, golden_run
from tests.core.generated import budget


def one_by_one_plan_round(self, active) -> None:
    """``_plan_round`` as it was: every admitted candidate is a ``try_apply``."""
    check_deadline()
    active.next_plan_event = None
    if active.cancel_requested:
        self._finish_active(active, "cancelled")
        return
    if self.policy.preempt and active.flow.pending:
        self._finish_active(active, "superseded")
        return
    if active.needs_replan:
        self._replan_or_abort(active, reason="link-failure")
        return
    oracle = active.oracle
    if oracle is None:
        round_nodes = sorted(active.remaining, key=repr)
    else:
        alone = oracle.nodes_of(
            oracle.safe_singletons(oracle.mask_of(active.committed))
        )
        cleanup = active.problem.cleanup_updates
        round_nodes = [
            node
            for node in sorted(active.remaining, key=repr)
            if (not oracle.reaches(node) if node in cleanup else node in alone)
            and oracle.try_apply(node)
        ]
        if not round_nodes:
            self._replan_or_abort(active, reason="stuck")
            return
    active.round_nodes = round_nodes
    active.phase = PLANNING
    active.issue_event = self.sim.schedule(
        PLAN_LATENCY_MS, self._issue_round, active
    )


def count_fallbacks(monkeypatch) -> dict:
    """Count the planner's unsafe batch verdicts: ``current_round_safe``
    answering ``False`` outside a ``try_apply``."""
    seen = {"fallbacks": 0, "in_try_apply": 0}
    judge, try_apply = SafetyOracle.current_round_safe, SafetyOracle.try_apply

    def counted_judge(oracle) -> bool:
        verdict = judge(oracle)
        seen["fallbacks"] += not verdict and not seen["in_try_apply"]
        return verdict

    def counted_try_apply(oracle, node) -> bool:
        seen["in_try_apply"] += 1
        try:
            return try_apply(oracle, node)
        finally:
            seen["in_try_apply"] -= 1

    monkeypatch.setattr(SafetyOracle, "current_round_safe", counted_judge)
    monkeypatch.setattr(SafetyOracle, "try_apply", counted_try_apply)
    return seen


def assert_plans_as_one_by_one(monkeypatch, run) -> None:
    batched = run()
    with monkeypatch.context() as patched:
        patched.setattr(OnlineChurnController, "_plan_round", one_by_one_plan_round)
        assert run() == batched


def test_batch_judgment_plans_the_one_by_one_rounds(monkeypatch):
    seen = count_fallbacks(monkeypatch)
    # the one-shot rows never reach the oracle branch of the planner
    for row in (row for row in GOLDEN_ROWS if row[3]):
        assert_plans_as_one_by_one(monkeypatch, lambda: golden_run(row))

    @budget(25)
    @given(
        shape=st.sampled_from((("fat-tree", 4), ("wan", 24))),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from((50.0, 100.0, 200.0)),
        link_failures=st.integers(min_value=0, max_value=3),
        waypoint_prob=st.sampled_from((0.0, 0.3, 1.0)),
        preempt=st.booleans(),
    )
    def check(shape, seed, rate, link_failures, waypoint_prob, preempt):
        trace = generate_trace(
            *shape,
            seed,
            rate_per_s=rate,
            duration_ms=200.0,
            link_failures=link_failures,
            waypoint_prob=waypoint_prob,
        )
        policy = ChurnPolicy(scheduled=True, preempt=preempt)
        assert_plans_as_one_by_one(
            monkeypatch, lambda: run_churn(trace, policy).to_dict()
        )

    check()
    assert seen["fallbacks"] > 0, seen
