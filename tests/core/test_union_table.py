"""The union graph's slot table and the problem's one-pass tables against
their from-scratch forms (``tests/core/reference_union.py``).

* After :meth:`UnionGraph.for_round` and after every :meth:`advance`, the
  graph shows what the ``EdgeChoice``-built reference shows: node order,
  the flexible set (iteration order included), successors, may-drop and
  choices -- on random partitions with install / cleanup nodes and
  damaged rounds, on policy views of a shared-rule problem, on the joint
  problem itself (which offers only ``next_hop``) and under arbitrary
  settle / in-flight steps.
* :func:`verify_schedule` builds no ``EdgeChoice`` at all.
* ``old_next`` / ``new_next`` / ``kind_table`` / ``required_updates`` /
  ``cleanup_updates`` equal the comprehension forms, down to dict key
  order and frozenset iteration order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import transient
from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.hardness import reversal_instance, sawtooth_instance
from repro.core.multipolicy import JointUpdateProblem, PolicyView
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateProblem
from repro.core.transient import UnionGraph
from repro.core.verify import Property, verify_schedule
from tests.core.generated import budget, update_problems
from tests.core.reference_union import (
    ReferenceUnionGraph,
    reference_cleanup_updates,
    reference_kind_table,
    reference_new_next,
    reference_old_next,
    reference_required_updates,
)
from tests.core.test_verify_equivalence import _ViewSchedule, partitioned_instances


def assert_same_graph(got: UnionGraph, want: ReferenceUnionGraph) -> None:
    assert list(got.nodes()) == list(want.nodes())
    assert list(got.flexible) == list(want.flexible)
    for node in [*want.nodes(), want.problem.destination]:
        assert got.choices(node) == want.choices(node), node
        assert got.successors(node) == want.successors(node), node
        assert got.may_drop(node) == want.may_drop(node), node


def assert_walks_alike(schedule) -> None:
    """Round 0 built, every later round stepped to, on both forms."""
    got = UnionGraph.for_round(schedule, 0)
    want = ReferenceUnionGraph.for_round(schedule, 0)
    assert_same_graph(got, want)
    for index in range(1, schedule.n_rounds):
        step = schedule.rounds[index - 1], schedule.rounds[index]
        got.advance(*step)
        want.advance(*step)
        assert_same_graph(got, want)


@budget(60)
@given(partitioned_instances())
def test_partitions_walk_like_the_choice_built_graph(schedule):
    assert_walks_alike(schedule)


@st.composite
def policy_views(draw):
    """One policy of a two-policy shared-rule problem, and random rounds
    over the joint updates: the second policy enters the first one's
    paths from a fresh source, so the two never disagree on a rule."""
    problem = draw(update_problems(min_n=4, max_n=12))
    old, new = problem.old_path.nodes, problem.new_path.nodes
    entry = max(problem.nodes) + 1
    second = UpdateProblem(
        (entry,) + old[draw(st.integers(1, len(old) - 1)):],
        (entry,) + new[draw(st.integers(1, len(new) - 1)):],
        name="second",
    )
    joint = JointUpdateProblem([problem, second])
    nodes = sorted(joint.required_updates | joint.cleanup_updates, key=repr)
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(nodes)
    cuts = sorted({0, *(c for c in range(1, len(nodes)) if draw(st.booleans()))})
    rounds = [nodes[a:b] for a, b in zip(cuts, cuts[1:] + [len(nodes)])]
    return joint, PolicyView(joint, draw(st.sampled_from(joint.policies))), rounds


@budget(40)
@given(policy_views())
def test_policy_views_and_their_joint_problem(case):
    joint, view, rounds = case
    assert_walks_alike(_ViewSchedule(view, rounds))
    # the joint problem has no next-hop tables: the slots come from next_hop
    updated: set = set()
    for round_nodes in rounds:
        assert_same_graph(
            UnionGraph.from_update_sets(joint, updated, round_nodes),
            ReferenceUnionGraph.from_update_sets(joint, updated, round_nodes),
        )
        updated |= set(round_nodes)


@budget(40)
@given(update_problems(), st.data())
def test_arbitrary_steps(problem, data):
    """``advance`` with sets that are not the last round's: nodes leave
    FLEXIBLE without settling, settle twice, and the destination (no
    forwarding node) is passed in and ignored."""
    pool = sorted(problem.nodes, key=repr)
    subsets = st.frozensets(st.sampled_from(pool), max_size=len(pool))
    start = data.draw(subsets), data.draw(subsets)
    got = UnionGraph.from_update_sets(problem, *start)
    want = ReferenceUnionGraph.from_update_sets(problem, *start)
    assert_same_graph(got, want)
    got.cycle_through_flexible()  # arms the phase masks advance then keeps
    for _ in range(data.draw(st.integers(1, 4))):
        step = data.draw(subsets), data.draw(subsets)
        got.advance(*step)
        want.advance(*step)
        assert_same_graph(got, want)


@pytest.mark.parametrize("problem", [
    reversal_instance(40), sawtooth_instance(60, 15),
], ids=lambda p: p.name)
def test_verification_builds_no_edge_choice(problem, monkeypatch):
    schedules = [
        (peacock_schedule(problem), (Property.RLF, Property.BLACKHOLE)),
        (greedy_slf_schedule(problem), (Property.SLF, Property.BLACKHOLE)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("an EdgeChoice was built")

    monkeypatch.setattr(transient, "_options", refuse)
    monkeypatch.setattr(transient, "EdgeChoice", refuse)
    for schedule, properties in schedules:
        assert schedule.n_rounds > 1
        assert verify_schedule(schedule, properties).ok
        assert not verify_schedule(schedule.merged(), properties).ok


@budget(80)
@given(update_problems(min_n=3, max_n=16))
def test_problem_tables_equal_the_comprehension_forms(problem):
    fresh = UpdateProblem(problem.old_path, problem.new_path, problem.waypoint)
    for got, want in (
        (fresh.old_next, reference_old_next(fresh)),
        (fresh.new_next, reference_new_next(fresh)),
        (fresh.kind_table, reference_kind_table(fresh)),
    ):
        assert list(got.items()) == list(want.items())
    for got, want in (
        (fresh.required_updates, reference_required_updates(fresh)),
        (fresh.cleanup_updates, reference_cleanup_updates(fresh)),
    ):
        assert got == want
        assert list(got) == list(want)
