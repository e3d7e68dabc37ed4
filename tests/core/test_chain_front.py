"""The forced-chain rule of the exact search, one bit test per state.

:meth:`PrecedenceAnalysis.chain_front` gives, for a pending mask, the
longest forced chain, the nodes that begin one of that length
(``starts``) and the nodes with a pending forced predecessor
(``constrained``).  The search prunes with it on three facts, each held
here to a reference: the pass agrees with a walk over every chain; a
round of unconstrained nodes shortens the longest chain exactly when it
takes every start; and no node the oracle calls safe alone is ever
constrained.  A last test bounds the work: no leaf asks the oracle a
question whose answer cannot complete the schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core import hardness, optimal
from repro.core.bnb import PrecedenceAnalysis, precedence_for
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import clear_registry, oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.topology.random_graphs import random_update_instance
from tests.core.generated import budget, update_problems

CHAINED = (
    (Property.SLF,),
    (Property.WPE, Property.SLF),
    (Property.SLF, Property.BLACKHOLE),
)
FAMILIES = (
    lambda: hardness.reversal_instance(9),
    lambda: hardness.sawtooth_instance(12, 3),
    lambda: hardness.sawtooth_instance(14, 4),
    lambda: hardness.crossing_clash_instance(8),
    hardness.double_diamond_instance,
)


def _analysis(problem, properties) -> PrecedenceAnalysis:
    assume(Property.WPE not in properties or problem.waypoint is not None)
    analysis = PrecedenceAnalysis(problem, properties)
    assume(analysis.infeasible_reason is None)
    return analysis


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_front(analysis, pending: int) -> tuple[int, int, int]:
    """``chain_front`` by walking every forced chain inside ``pending``."""
    bit = {node: position for position, node in enumerate(analysis.canonical)}
    after: dict[int, list[int]] = {}
    constrained = 0
    for before, later in analysis.forced_pairs():
        after.setdefault(bit[before], []).append(bit[later])
        if (pending >> bit[before]) & 1 and (pending >> bit[later]) & 1:
            constrained |= 1 << bit[later]

    def lengths(node):  # of every chain that begins at ``node``
        yield 1
        for nxt in after.get(node, ()):
            if (pending >> nxt) & 1:
                yield from (length + 1 for length in lengths(nxt))

    longest = {node: max(lengths(node)) for node in _bits(pending)}
    length = max(longest.values(), default=0)
    starts = sum(1 << node for node, size in longest.items() if size == length)
    return length, starts, constrained


problems = st.one_of(
    update_problems(),
    st.sampled_from(FAMILIES).map(lambda build: build()),
)


@budget(60)
@given(problems, st.sampled_from(CHAINED), st.data())
def test_one_pass_matches_a_walk_over_every_chain(problem, properties, data):
    analysis = _analysis(problem, properties)
    pending = data.draw(st.integers(0, analysis.full_mask))
    assert analysis.chain_front(pending) == reference_front(analysis, pending)


@budget(60)
@given(problems, st.sampled_from(CHAINED), st.data())
def test_a_round_shortens_the_chain_exactly_when_it_takes_every_start(
    problem, properties, data
):
    analysis = _analysis(problem, properties)
    pending = data.draw(st.integers(1, analysis.full_mask))
    length, starts, constrained = analysis.chain_front(pending)
    free = pending & ~constrained
    taken = data.draw(st.integers(0, analysis.full_mask)) & free
    shorter = analysis.chain_front(pending & ~taken)[0] <= length - 1
    assert shorter == (taken & starts == starts)


@budget(40)
@given(problems, st.sampled_from(CHAINED), st.randoms(use_true_random=False))
def test_no_safe_singleton_is_constrained_on_reachable_states(
    problem, properties, rng
):
    analysis = _analysis(problem, properties)
    clear_registry()
    oracle = oracle_for(problem, properties)
    state = 0
    while state != analysis.full_mask:
        safe = oracle.safe_singletons(state)
        constrained = analysis.chain_front(analysis.full_mask & ~state)[2]
        assert safe & constrained == 0, (problem, properties, state)
        if not safe:
            break
        rmask = rng.randint(1, safe) & safe or safe & -safe
        if not oracle.round_is_safe(state, rmask):
            rmask = safe & -safe  # a safe singleton is a safe round
        state |= rmask


@pytest.mark.parametrize(
    "n, seed, properties",
    [
        (16, 5, (Property.SLF,)),
        (16, 5, (Property.RLF,)),
        (14, 1, (Property.SLF,)),
        (14, 10, (Property.RLF,)),
        (18, 0, (Property.SLF,)),
    ],
)
def test_no_leaf_asks_a_round_that_cannot_finish(n, seed, properties, monkeypatch):
    # a two-round default-mode solve deepens through limits 1 and 2, so
    # every state but the root is a leaf: the one round worth asking
    # there is the whole pending set, and only when all of it is safe
    # alone (the "roof" of any other leaf cannot complete the schedule)
    old, new, _ = random_update_instance(n, seed=seed)
    problem = UpdateProblem(old, new)
    clear_registry()
    asked = []
    real = optimal._MaskSearch.round_ok

    def round_ok(search, state, rmask):
        asked.append((search, state, rmask))
        return real(search, state, rmask)

    monkeypatch.setattr(optimal._MaskSearch, "round_ok", round_ok)
    assert minimal_round_schedule(problem, properties).n_rounds == 2
    leaves = [(search, state, rmask) for search, state, rmask in asked if state]
    assert leaves
    for search, state, rmask in leaves:
        pending = search.full & ~state
        assert rmask == pending == search.safe_singleton_mask(state), state


def test_a_safe_constrained_node_is_an_internal_error(monkeypatch):
    # no second path: were the certificates ever wrong about a node, the
    # search stops and names it instead of pruning on a false chain
    problem = hardness.reversal_instance(6)
    clear_registry()
    analysis = precedence_for(problem, (Property.RLF,))
    monkeypatch.setattr(
        analysis, "chain_front", lambda pending: (1, pending, pending)
    )
    with pytest.raises(RuntimeError, match="safe alone before a forced"):
        minimal_round_schedule(problem, (Property.RLF,))
