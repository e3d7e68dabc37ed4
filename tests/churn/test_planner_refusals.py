"""The churn planner's unprobed refusals are exact.

At the top of a planning round the oracle holds exactly the committed
nodes and nothing in flight.  The planner then skips, without calling
``try_apply``,

* every required update outside ``safe_singletons(committed mask)``:
  unsafe as a one-node round, so unsafe in any larger one (verdicts are
  monotone in the in-flight set), and
* every cleanup deletion the source reaches at its turn: in flight it
  may drop, so BLACKHOLE fails.

Here both refusals are held to ``try_apply`` itself on generated path
pairs under churn's property sets -- from a safe committed base, and
again after a random accepted prefix of other candidates -- and a
refused probe must leave the oracle's updated and in-flight sets as
they were.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.oracle import SafetyOracle
from repro.core.verify import Property
from tests.core.generated import budget, update_problems


def churn_oracle(problem) -> SafetyOracle:
    """The oracle the churn controller builds (``_start_update``)."""
    properties = [Property.BLACKHOLE, Property.RLF]
    if problem.waypoint is not None:
        properties.append(Property.WPE)
    return SafetyOracle(problem, tuple(properties))


def refused(oracle, problem, node, alone) -> bool:
    if node in problem.cleanup_updates:
        return oracle.reaches(node)
    return node not in alone


def assert_refused(oracle, node) -> None:
    updated, in_flight = oracle.updated_nodes(), oracle.in_flight_nodes()
    assert not oracle.try_apply(node), node
    assert oracle.updated_nodes() == updated
    assert oracle.in_flight_nodes() == in_flight


def commit_random_rounds(oracle, candidates, rng) -> None:
    """Grow and commit a few greedy rounds: the committed state of a
    safe round is a safe base."""
    for _ in range(rng.randrange(4)):
        pending = sorted(candidates - oracle.updated_nodes(), key=repr)
        rng.shuffle(pending)
        for node in pending:
            oracle.try_apply(node)
        oracle.commit_round()


def test_refusals_agree_with_try_apply():
    seen = {"required": 0, "cleanup": 0}

    @budget(80)
    @given(update_problems(), st.randoms(use_true_random=False))
    def check(problem, rng: random.Random):
        oracle = churn_oracle(problem)
        candidates = problem.required_updates | problem.cleanup_updates
        commit_random_rounds(oracle, candidates, rng)
        assert oracle.current_round_safe()
        alone = oracle.nodes_of(
            oracle.safe_singletons(oracle.mask_of(oracle.updated_nodes()))
        )
        pending = sorted(candidates - oracle.updated_nodes(), key=repr)
        # from the committed base, nothing in flight
        for node in pending:
            if refused(oracle, problem, node, alone):
                assert_refused(oracle, node)
        # and at each candidate's turn after a random accepted prefix
        rng.shuffle(pending)
        for node in pending:
            if refused(oracle, problem, node, alone):
                assert_refused(oracle, node)
                kind = "cleanup" if node in problem.cleanup_updates else "required"
                seen[kind] += 1
            elif rng.random() < 0.7:
                oracle.try_apply(node)

    check()
    assert all(seen.values()), seen
