"""Property test: incremental oracle deltas vs the from-scratch reference.

The online churn controller keeps one long-lived :class:`SafetyOracle`
per update and mutates it through ``apply`` / ``revert`` / ``commit`` /
``commit_round`` / ``try_apply`` / ``reset`` as arrivals, cancellations
and link failures interleave.  This test hammers random interleavings of
exactly those deltas on random instances and, after every operation,
cross-checks the oracle's incremental verdict and node bookkeeping
against :func:`round_is_safe_reference`, which rebuilds the union graph
from scratch.  A divergence here means the incremental maintenance lost
track of the graph somewhere along a delta sequence.

After every operation the order labels are audited too: each edge the
oracle has not blocked runs from a lower label to a higher one, and the
blocked set is the one :class:`ClassicOrderOracle` -- the dense
Pearce-Kelly reorder this oracle used to do, kept here as the reference --
arrives at over the same operations (which edges close a cycle when they
are inserted does not depend on the labels).

Wide rounds get their own scripts: committing many nodes at once leaves
a wide stale blocked set, which the oracle settles by re-ranking the
whole graph unless a cycle remains.  :class:`PerEdgeOracle` never
re-ranks, and the two must agree on everything but the labels.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.churn import ChurnPolicy, generate_trace, run_churn
from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.hardness import reversal_instance, sawtooth_instance
from repro.core.oracle import SafetyOracle, aggregate_stats
from repro.core.optimal import round_is_safe_reference
from repro.core.packing import install_round
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateProblem
from repro.core.transient import UnionGraph
from repro.core.verify import Property
from repro.topology.random_graphs import random_update_instance
from tests.core.generated import budget, update_problems

_RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_OPS = ("apply", "revert", "commit", "try_apply", "commit_round", "reset", "query")


@st.composite
def oracle_scripts(draw):
    """A random instance plus a random delta/checkpoint script over it."""
    with_waypoint = draw(st.booleans())
    n = draw(st.integers(min_value=4, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    overlap = draw(st.floats(min_value=0.0, max_value=1.0))
    old, new, waypoint = random_update_instance(
        n, seed=seed, overlap=overlap, with_waypoint=with_waypoint
    )
    problem = UpdateProblem(old, new, waypoint=waypoint if with_waypoint else None)
    nodes = sorted(problem.all_updates, key=repr)
    if not nodes:
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        nodes = sorted(problem.all_updates, key=repr)
    properties = (Property.BLACKHOLE, draw(st.sampled_from((Property.RLF, Property.SLF))))
    if problem.waypoint is not None:
        properties += (Property.WPE,)
    width = len(nodes)
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(min_value=0, max_value=2**width - 1),
                st.integers(min_value=0, max_value=2**width - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return problem, nodes, properties, ops


def _subset(nodes, mask):
    return {node for bit, node in enumerate(nodes) if mask & (1 << bit)}


class ClassicOrderOracle(SafetyOracle):
    """Reference: Pearce-Kelly as published -- discover the whole affected
    region on both sides, then hand its own label slots back out."""

    def _pk_insert(self, u, v) -> None:
        order = self._ord
        lower, upper = order[v], order[u]
        if upper < lower:
            return
        blocked = self._blocked
        forward, stack, seen = [], [v], {v}
        while stack:
            node = stack.pop()
            forward.append(node)
            for target in self._succ[node]:
                if (node, target) in blocked:
                    continue
                if target == u:
                    blocked.add((u, v))
                    self._blocked_tails.add(u)
                    self.stats.pk_cycles += 1
                    return
                if target not in seen and order[target] <= upper:
                    seen.add(target)
                    stack.append(target)
        backward, stack, seen = [], [u], {u}
        while stack:
            node = stack.pop()
            backward.append(node)
            for origin in self._pred[node]:
                if (
                    origin not in seen
                    and order[origin] >= lower
                    and (origin, node) not in blocked
                ):
                    seen.add(origin)
                    stack.append(origin)
        affected = sorted(backward, key=order.get) + sorted(forward, key=order.get)
        for node, slot in zip(affected, sorted(order[node] for node in affected)):
            order[node] = slot
        self.stats.pk_reorders += 1


def assert_order_is_sound(oracle: SafetyOracle, classic: SafetyOracle) -> None:
    oracle._validate_blocked()
    classic._validate_blocked()
    assert oracle._blocked == classic._blocked
    assert oracle._blocked_tails == {u for u, _ in oracle._blocked}
    for u, targets in oracle._succ.items():
        for v in targets:
            assert (u, v) in oracle._blocked or oracle._ord[u] < oracle._ord[v]
    assert oracle.stats.pk_cycles == classic.stats.pk_cycles
    from_scratch = UnionGraph.from_update_sets(
        oracle.problem, oracle.updated_nodes(), oracle.in_flight_nodes()
    )
    assert (from_scratch.find_cycle() is None) == (not oracle._blocked)


class TestOracleInterleaving:
    @_RELAXED
    @given(oracle_scripts())
    def test_random_delta_sequences_match_reference(self, script):
        problem, nodes, properties, ops = script
        oracle = SafetyOracle(problem, properties)
        classic = ClassicOrderOracle(problem, properties)
        updated: set = set()
        in_flight: set = set()

        def both(method: str, *args):
            """The reference takes the very same operation."""
            getattr(classic, method)(*args)
            return getattr(oracle, method)(*args)

        for name, a, b in ops:
            node = nodes[a % len(nodes)]
            if name == "apply":
                both("apply", node)
                updated.discard(node)
                in_flight.add(node)
            elif name == "revert":
                both("revert", node)
                updated.discard(node)
                in_flight.discard(node)
            elif name == "commit":
                both("commit", node)
                in_flight.discard(node)
                updated.add(node)
            elif name == "commit_round":
                both("commit_round")
                updated |= in_flight
                in_flight.clear()
            elif name == "try_apply":
                # with no learned nogoods this is apply + check (+ revert)
                expect = round_is_safe_reference(
                    problem,
                    updated - {node},
                    in_flight | {node},
                    properties,
                )
                verdict = both("try_apply", node)
                assert verdict == expect
                updated.discard(node)
                if verdict:
                    in_flight.add(node)
                else:
                    in_flight.discard(node)
            elif name == "reset":
                updated = _subset(nodes, a)
                in_flight = _subset(nodes, b) - updated
                both("reset", updated, in_flight)
            elif name == "query":
                query_updated = _subset(nodes, a)
                query_round = _subset(nodes, b) - query_updated
                verdict = both("round_is_safe", query_updated, query_round)
                assert verdict == round_is_safe_reference(
                    problem, query_updated, query_round, properties
                )
                # round_is_safe morphs the live graph; put the round back
                both("reset", updated, in_flight)

            assert oracle.updated_nodes() == frozenset(updated)
            assert oracle.in_flight_nodes() == frozenset(in_flight)
            assert oracle.current_round_safe() == round_is_safe_reference(
                problem, updated, in_flight, properties
            )
            assert_order_is_sound(oracle, classic)


def test_a_gap_out_of_float_precision_is_reopened_by_a_renumber():
    """Nodes 2 and 3 of ``1 2 3 4 5 => 1 3 2 4 5`` want each other's place
    in turn; each swap lands in what is left of the gap below node 4, so
    the gap halves until a float cannot split it and every label is
    rewritten -- with the order still sound and the verdicts unmoved."""
    problem = UpdateProblem([1, 2, 3, 4, 5], [1, 3, 2, 4, 5])
    oracle = SafetyOracle(problem, (Property.SLF,))
    classic = ClassicOrderOracle(problem, (Property.SLF,))
    renumbers = 0
    for _ in range(60):
        for name, node in (("commit", 2), ("apply", 3), ("revert", 3), ("revert", 2)):
            written = oracle._relabelled
            getattr(oracle, name)(node)
            getattr(classic, name)(node)
            renumbers += oracle._relabelled - written >= len(problem.nodes)
            assert oracle.current_round_safe() and classic.current_round_safe()
            assert_order_is_sound(oracle, classic)
    assert renumbers >= 1
    assert oracle.stats.pk_reorders == 120 == classic.stats.pk_reorders


class TalliedOracle(SafetyOracle):
    """The oracle under test, tallying how its re-rank attempts end."""

    def __init__(self, problem, properties, tally: Counter) -> None:
        super().__init__(problem, properties)
        self.tally = tally

    def _rerank(self) -> bool:
        ranked = super()._rerank()
        self.tally["ranked" if ranked else "declined"] += 1
        return ranked


class PerEdgeOracle(SafetyOracle):
    """Reference: a stale blocked set is always re-inserted edge by edge."""

    def _rerank(self) -> bool:
        return False


@st.composite
def wide_round_scripts(draw):
    """A generated instance plus steps that each move many nodes at once:
    a wide round applied and committed, a batch put back to OLD, a probe
    or a memoized query.  Sawtooth instances (backward blocks) refuse many
    edges in one round, so their commits leave wide stale sets."""
    problem = draw(
        st.one_of(
            update_problems(min_n=6, max_n=16),
            st.builds(sawtooth_instance, st.integers(6, 16), st.integers(2, 8)),
        )
    )
    nodes = sorted(problem.all_updates, key=repr)
    properties = (draw(st.sampled_from((Property.SLF, Property.RLF))),)
    if problem.waypoint is not None:
        properties += (Property.WPE,)
    masks = st.integers(min_value=0, max_value=2 ** len(nodes) - 1)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("wide", "wide", "revert", "probe", "query")),
                masks,
                masks,
            ),
            min_size=1,
            max_size=12,
        )
    )
    return problem, nodes, properties, steps


def assert_matches_per_edge(oracle: SafetyOracle, reference: SafetyOracle) -> None:
    assert oracle.current_round_safe() == reference.current_round_safe()
    # the same members in the same order: which edge of a cycle a later
    # per-edge pass keeps blocked follows the set's iteration order
    assert list(oracle._blocked) == list(reference._blocked)
    assert oracle._blocked_tails == reference._blocked_tails
    assert oracle.stats.pk_cycles == reference.stats.pk_cycles
    for u, targets in oracle._succ.items():
        for v in targets:
            assert (u, v) in oracle._blocked or oracle._ord[u] < oracle._ord[v]


def _run_wide_script(problem, nodes, properties, steps, tally) -> SafetyOracle:
    oracle = TalliedOracle(problem, properties, tally)
    reference = PerEdgeOracle(problem, properties)
    for name, a, b in steps:
        chosen = [node for bit, node in enumerate(nodes) if a >> bit & 1]
        if name == "wide":
            for node in chosen:
                oracle.apply(node)
                reference.apply(node)
            oracle.commit_round()
            reference.commit_round()
        elif name == "revert":
            for node in chosen:
                oracle.revert(node)
                reference.revert(node)
        elif name == "probe":
            node = nodes[a % len(nodes)]
            assert oracle.try_apply(node) == reference.try_apply(node)
        else:
            updated, in_flight = oracle.updated_nodes(), oracle.in_flight_nodes()
            query = (set(chosen), {n for bit, n in enumerate(nodes) if b >> bit & 1})
            assert oracle.round_is_safe(*query) == reference.round_is_safe(*query)
            oracle.reset(updated, in_flight)
            reference.reset(updated, in_flight)
        assert_matches_per_edge(oracle, reference)
    return oracle


def test_a_wide_commit_is_re_ranked_exactly_when_no_cycle_is_left():
    """Over generated wide-round scripts the re-rank both succeeds and
    declines, and either way the oracle agrees with the per-edge pass."""
    tally: Counter = Counter()

    @budget(60)
    @given(wide_round_scripts())
    def run(script):
        _run_wide_script(*script, tally)

    run()
    assert tally["ranked"] >= 1 and tally["declined"] >= 1, tally


def test_a_re_ranked_commit_keeps_the_blocked_sets_iteration_order():
    """Found by generation: had the re-rank ``clear()``ed the blocked set
    instead of emptying it member by member, the edges the next wide
    round blocks would come out in another order than the per-edge pass
    leaves them in."""
    problem = sawtooth_instance(12, 5)
    nodes = sorted(problem.all_updates, key=repr)
    steps = [("wide", 714, 0), ("wide", 1404, 0), ("revert", 10, 0)]
    tally: Counter = Counter()
    _run_wide_script(problem, nodes, (Property.SLF,), steps, tally)
    assert tally["ranked"] >= 1


def test_a_re_rank_over_mixed_str_and_int_node_ids_never_compares_nodes():
    """Found by generation: labels tie (a moved node's ``upper + 1.0``
    equals an untouched node's integer label), and a heap of ``(label,
    node)`` pairs then compared a ``str`` node with an ``int`` one and
    raised ``TypeError`` out of a valid request's query."""
    base = reversal_instance(7)
    rename = {node: node if node % 3 == 0 else f"s{node}" for node in base.nodes}
    problem = UpdateProblem(
        [rename[node] for node in base.old_path.nodes],
        [rename[node] for node in base.new_path.nodes],
        name="mixed-ids",
    )
    nodes = sorted(problem.all_updates, key=repr)
    steps = [("wide", 14, 0), ("wide", 19, 0)]
    tally: Counter = Counter()
    oracle = _run_wide_script(problem, nodes, (Property.SLF,), steps, tally)
    assert tally == {"declined": 1, "ranked": 1}
    assert sorted(oracle._ord.values()) == list(range(len(oracle._ord)))


def test_an_unreachable_loop_left_by_a_wide_commit_falls_back_to_per_edge():
    """Reversal(12) after its first round (``1 -> 11``): committing the
    backward nodes 3..10 in one round, with 2 still OLD, leaves the loop
    ``2 -> 3 -> 2`` that the source cannot reach -- relaxed-loop-free, so
    safe, but the graph does not sort and the re-rank declines."""
    problem = reversal_instance(12)
    properties = (Property.RLF,)
    nodes = sorted(problem.all_updates)
    assert nodes == list(range(1, 12))
    backward = sum(1 << (node - 1) for node in range(3, 11))
    tally: Counter = Counter()
    steps = [("wide", 1, 0), ("wide", backward, 0)]
    oracle = _run_wide_script(problem, nodes, properties, steps, tally)
    assert tally == {"declined": 1}
    assert oracle.updated_nodes() == set(range(1, 11)) - {2}
    assert oracle.current_round_safe()
    assert oracle._blocked == {(3, 2)}
    assert round_is_safe_reference(problem, oracle.updated_nodes(), (), properties)


@pytest.mark.parametrize("n", (500, 1000, 2000))
def test_peacock_re_ranks_its_wide_round_once_whatever_the_size(n):
    """Committing Peacock's wide backward round unblocks ~n edges: one
    re-rank writes each label once, where re-inserting them edge by edge
    wrote 3.2-3.8 labels per node and counted ~n reorders."""
    problem = reversal_instance(n)  # an oracle does not keep its problem
    oracle = SafetyOracle(problem, (Property.RLF,))
    schedule = peacock_schedule(oracle.problem, oracle=oracle, include_cleanup=False)
    assert schedule.n_rounds == 3
    assert oracle._relabelled <= 1.5 * n
    assert oracle.stats.pk_reorders <= 8
    assert oracle.stats.pk_cycles == n - 4


@pytest.mark.parametrize("n", (60, 120, 160, 240, 500, 1000, 2000))
def test_a_reorder_rewrites_a_handful_of_labels_whatever_the_size(n):
    """On the reversal family every greedy-SLF reorder moves the one node
    being flipped, not the chain already settled behind it, and the round
    packer probes each node a bounded number of times (~2; probing every
    pending node each round took ~n^2/2)."""
    problem = reversal_instance(n)  # an oracle does not keep its problem
    oracle = SafetyOracle(problem, (Property.SLF,))
    schedule = greedy_slf_schedule(oracle.problem, oracle=oracle)
    assert schedule.n_rounds >= n - 2
    assert oracle.stats.pk_reorders >= n - 3
    assert oracle._relabelled <= 4 * oracle.stats.pk_reorders
    assert oracle.stats.applies <= 3 * n


@pytest.mark.parametrize("with_waypoint", (False, True))
def test_an_install_round_runs_along_the_initial_order(with_waypoint):
    """A run of new-only nodes starts labelled just below the old-path
    node it rejoins, in new-path order, so putting every install in
    flight adds its chain along the order: no reorder.  Ranked after the
    whole old path instead, each chain edge ran against it."""
    for n in range(6, 17):
        for seed in range(20):
            old, new, waypoint = random_update_instance(
                n, seed=seed, with_waypoint=with_waypoint
            )
            problem = UpdateProblem(old, new, waypoint=waypoint)
            properties = (Property.SLF,) + ((Property.WPE,) if with_waypoint else ())
            oracle = SafetyOracle(problem, properties)
            oracle.reset(install_round(problem))
            assert oracle.stats.pk_reorders == 0, (n, seed)


def test_churn_reorders_under_half_a_time_per_arrival():
    """The online controller builds one oracle per update and flips its
    installs first: with path-ordered labels this fat-tree trace reads
    27 reorders over 97 arrivals (277 with the install chains ranked
    last)."""
    trace = generate_trace("fat-tree", 4, 7, rate_per_s=100.0, duration_ms=1000.0)
    before = aggregate_stats().pk_reorders
    metrics = run_churn(trace, ChurnPolicy(scheduled=True))
    reorders = aggregate_stats().pk_reorders - before
    assert metrics.quiescent and metrics.arrivals > 0
    assert reorders <= 0.5 * metrics.arrivals, (reorders, metrics.arrivals)
