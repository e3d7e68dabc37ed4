"""``verify_schedule`` (one union graph walked round to round, strong loop
freedom by induction over the rounds) must report exactly what a fold of
from-scratch ``verify_round`` calls reports.

Same ``ok``, same ``Violation`` objects (property, round index, witness,
description), same ``rounds_checked`` / ``conservative_hits`` and same
errors -- on safe schedules and on
deliberately broken ones, for every property, on random partitions with
install and cleanup rounds and a violation in the middle, and on
duck-typed problems that offer nothing but ``next_hop``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.hardness import (
    crossing_clash_instance,
    crossing_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.multipolicy import (
    JointUpdateProblem,
    PolicyView,
    greedy_joint_schedule,
)
from repro.core.oneshot import oneshot_schedule
from repro.core.oracle import SafetyOracle
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule, sequential_schedule
from repro.core import verify
from repro.core.transient import UnionGraph
from repro.core.verify import (
    Property,
    VerificationReport,
    verify_round,
    verify_schedule,
)
from repro.core.wayup import wayup_schedule
from repro.errors import ReproError
from repro.topology.random_graphs import random_update_instance

SLF, RLF, WPE, BH = Property.SLF, Property.RLF, Property.WPE, Property.BLACKHOLE
RLF_BUDGET = 5_000  # broken rounds may blow the exact search: compare that too


def fold_of_verify_round(schedule, properties, exact_rlf):
    """The reference: every round on a union graph built from scratch."""
    report = VerificationReport(ok=True, properties=tuple(properties))
    for round_index in range(schedule.n_rounds):
        violations, conservative_hits = verify_round(
            schedule, round_index, properties, exact_rlf=exact_rlf
        )
        report.rounds_checked += 1
        report.conservative_hits += conservative_hits
        if violations:
            report.ok = False
            report.violations.extend(violations)
    return report


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc), str(exc)


def assert_equivalent(schedule, waypointed: bool) -> int:
    """Compare under every property alone and all together; returns the
    number of violations seen (so callers can tell the unsafe path ran).
    Both sides run under the small :data:`RLF_BUDGET`; the schedules under
    test were built with the default one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "RLF_BUDGET", RLF_BUDGET)
        return _compare_under_every_property(schedule, waypointed)


def _compare_under_every_property(schedule, waypointed: bool) -> int:
    seen = 0
    singles = [(SLF,), (RLF,), (BH,)] + ([(WPE,)] if waypointed else [])
    everything = (BH, RLF, SLF) + ((WPE,) if waypointed else ())
    for properties in singles + [everything]:
        for exact_rlf in (True, False) if RLF in properties else (True,):
            got = _outcome(lambda: verify_schedule(
                schedule, properties, exact_rlf=exact_rlf,
            ))
            want = _outcome(lambda: fold_of_verify_round(
                schedule, properties, exact_rlf
            ))
            assert got == want, (schedule, properties, exact_rlf)
            if isinstance(got, VerificationReport):
                seen += len(got.violations)
    return seen


def schedules_of(problem: UpdateProblem, rng: random.Random):
    """Safe schedules of ``problem`` and broken variants of each."""
    safe = [
        greedy_slf_schedule(problem),
        peacock_schedule(problem),
        sequential_schedule(problem),
    ]
    if problem.waypoint is not None:
        safe.append(wayup_schedule(problem))
    yield from safe
    yield oneshot_schedule(problem)
    for schedule in safe:
        yield schedule.merged()
        rounds = list(schedule.rounds)
        if len(rounds) < 2:
            continue
        shuffled = rounds[:]
        rng.shuffle(shuffled)
        yield UpdateSchedule(problem, shuffled, algorithm="shuffled")
        i, j = rng.sample(range(len(rounds)), 2)
        rounds[i], rounds[j] = rounds[j], rounds[i]
        yield UpdateSchedule(problem, rounds, algorithm="swapped")


FAMILIES = [
    reversal_instance(6),
    reversal_instance(19),
    sawtooth_instance(14, 3),
    sawtooth_instance(23, 6),
    crossing_instance(),
    crossing_clash_instance(9),
    waypoint_slalom_instance(3),
]


@pytest.mark.parametrize("problem", FAMILIES, ids=lambda p: p.name)
def test_families_safe_and_broken(problem):
    rng = random.Random(problem.name)
    seen = sum(
        assert_equivalent(schedule, problem.waypoint is not None)
        for schedule in schedules_of(problem, rng)
    )
    assert seen > 0  # the broken variants did produce witnesses to compare


@pytest.mark.parametrize("chunk", range(4))
def test_random_instances_safe_and_broken(chunk):
    seen = 0
    for index in range(chunk * 10, chunk * 10 + 10):
        rng = random.Random(f"verify-{index}")
        with_waypoint = index % 2 == 1
        old, new, waypoint = random_update_instance(
            rng.randint(6, 20), seed=rng,
            overlap=rng.choice((0.4, 0.7, 1.0)), with_waypoint=with_waypoint,
        )
        problem = UpdateProblem(old, new, waypoint=waypoint)
        if not problem.required_updates:
            continue
        for schedule in schedules_of(problem, rng):
            seen += assert_equivalent(schedule, with_waypoint)
    assert seen > 0


class _ViewSchedule:
    """A schedule over a duck-typed problem: what the verifier itself reads."""

    def __init__(self, problem, rounds) -> None:
        self.problem = problem
        self.rounds = tuple(frozenset(r) for r in rounds)
        self.n_rounds = len(self.rounds)
        self._round_of = {n: i for i, r in enumerate(self.rounds) for n in r}

    def round_of(self, node):
        return self._round_of.get(node)


def test_policy_views_that_only_offer_next_hop():
    p1 = UpdateProblem([1, 3, 4, 7, 6], [1, 3, 5, 4, 6], name="p1")
    p2 = UpdateProblem([2, 3, 4, 7, 6], [2, 3, 5, 4, 6], name="p2")
    joint = JointUpdateProblem([p1, p2])
    safe = greedy_joint_schedule(joint, (RLF, BH))
    rounds = list(safe.rounds)
    variants = [rounds, rounds[::-1], [frozenset().union(*rounds)]]
    seen = 0
    for policy in joint.policies:
        view = PolicyView(joint, policy)
        for variant in variants:
            seen += assert_equivalent(_ViewSchedule(view, variant), waypointed=False)
    assert seen > 0


@pytest.mark.parametrize("problem", FAMILIES, ids=lambda p: p.name)
def test_walked_graph_equals_the_graph_built_from_scratch(problem):
    schedule = greedy_slf_schedule(problem)
    walked = UnionGraph.for_round(schedule, 0)
    for index in range(schedule.n_rounds):
        if index:
            walked.advance(schedule.rounds[index - 1], schedule.rounds[index])
        fresh = UnionGraph.for_round(schedule, index)
        assert list(walked.nodes()) == list(fresh.nodes())
        assert walked.flexible == fresh.flexible
        for node in fresh.nodes():
            assert walked.choices(node) == fresh.choices(node)
            assert walked.successors(node) == fresh.successors(node)
            assert walked.may_drop(node) == fresh.may_drop(node)


# ---------------------------------------------------------------------------
# random partitions: the induction over rounds against the from-scratch fold
# ---------------------------------------------------------------------------

@st.composite
def partitioned_instances(draw):
    """A random instance and an ordered partition of its updates: either
    drawn blind (unsafe nearly always, install and cleanup nodes anywhere)
    or a safe greedy schedule damaged somewhere in the middle, so clean
    rounds come before the violation and more rounds after it."""
    seed = draw(st.integers(0, 2**32 - 1))
    with_waypoint = draw(st.booleans())
    old, new, waypoint = random_update_instance(
        draw(st.integers(5, 18)), seed=seed,
        overlap=draw(st.sampled_from((0.4, 0.7, 1.0))),
        with_waypoint=with_waypoint,
    )
    problem = UpdateProblem(old, new, waypoint=waypoint)
    if not problem.required_updates:
        problem = reversal_instance(draw(st.integers(5, 12)))
    rng = random.Random(seed)
    if draw(st.booleans()):
        nodes = sorted(problem.required_updates, key=repr)
        nodes += [n for n in sorted(problem.cleanup_updates, key=repr)
                  if draw(st.booleans())]
        rng.shuffle(nodes)
        cuts = sorted({0, *(c for c in range(1, len(nodes)) if draw(st.booleans()))})
        rounds = [nodes[a:b] for a, b in zip(cuts, cuts[1:] + [len(nodes)])]
    else:
        rounds = [set(r) for r in greedy_slf_schedule(problem).rounds]
        for _ in range(draw(st.integers(0, 2))):
            if len(rounds) < 2:
                break
            source = rng.randrange(len(rounds))
            target = rng.randrange(len(rounds))
            rounds[target].add(rounds[source].pop())  # safe when source == target
            rounds = [r for r in rounds if r]
    return UpdateSchedule(problem, rounds, algorithm="partition")


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(partitioned_instances())
def test_random_partitions_report_what_the_round_fold_reports(schedule):
    assert_equivalent(schedule, schedule.problem.waypoint is not None)
    got = verify_schedule(schedule, (SLF,))
    want = [
        violation
        for index in range(schedule.n_rounds)
        for violation in verify_round(schedule, index, (SLF,))[0]
    ]
    assert got.violations == want


def test_a_violation_in_the_middle_ends_the_induction_not_the_checking():
    """Rounds before the damage are clean, the damaged round and later
    damaged rounds are reported with the from-scratch witnesses, and the
    clean rounds after a violation are still found clean."""
    problem = reversal_instance(40)
    rounds = [set(r) for r in greedy_slf_schedule(problem).rounds]
    rounds[10] |= rounds.pop(11)
    rounds[24] |= rounds.pop(25)
    schedule = UpdateSchedule(problem, rounds, algorithm="damaged")
    report = verify_schedule(schedule, (SLF,))
    assert [v.round_index for v in report.violations] == [10, 24]
    assert report.rounds_checked == len(rounds)
    assert assert_equivalent(schedule, waypointed=False) > 0


@pytest.mark.parametrize("problem", FAMILIES, ids=lambda p: p.name)
def test_contracted_check_agrees_with_the_whole_graph_search(problem):
    """Round by round along a safe schedule, then with every later round
    pulled into the current one: no cycle through a flexible node exactly
    when the whole graph has none."""
    schedule = greedy_slf_schedule(problem)
    walked = UnionGraph.for_round(schedule, 0)
    updated: set = set()
    for index, round_nodes in enumerate(schedule.rounds):
        if index:
            walked.advance(schedule.rounds[index - 1], round_nodes)
        assert not walked.cycle_through_flexible()
        assert walked.find_cycle() is None
        rest = set().union(*schedule.rounds[index:])
        merged = UnionGraph.from_update_sets(problem, updated, rest)
        assert merged.cycle_through_flexible() == (merged.find_cycle() is not None)
        updated |= round_nodes


def test_what_the_contracted_check_cannot_tell_goes_to_the_whole_graph_search():
    """A cycle among fixed nodes (the premise is broken: 3 went NEW in no
    round) and a problem that is not two paths both answer 'maybe'."""
    union = UnionGraph.from_update_sets(reversal_instance(6), {3}, {1})
    assert union.find_cycle() is not None
    assert union.cycle_through_flexible()
    p1 = UpdateProblem([1, 3, 4, 7, 6], [1, 3, 5, 4, 6], name="p1")
    p2 = UpdateProblem([2, 3, 4, 7, 6], [2, 3, 5, 4, 6], name="p2")
    view = PolicyView(JointUpdateProblem([p1, p2]), p1)
    assert UnionGraph.from_update_sets(view, set(), {5}).cycle_through_flexible()


@pytest.mark.parametrize("n", (500, 1000, 2000))
def test_stretches_crossed_per_round_do_not_grow_with_the_instance(n):
    schedule = greedy_slf_schedule(reversal_instance(n))
    walked = UnionGraph.for_round(schedule, 0)
    for index, round_nodes in enumerate(schedule.rounds):
        if index:
            walked.advance(schedule.rounds[index - 1], round_nodes)
        before = walked._hops
        assert not walked.cycle_through_flexible()
        assert walked._hops - before <= 4 * len(round_nodes)
    assert schedule.n_rounds >= n - 2  # one node a round: the many-round case


class _GraphWork:
    """Wraps the union graph's queries to count the nodes they may cover:
    a whole-graph or ``within`` cycle search (its node set), a BFS (the
    nodes it reached), a contracted check (the stretches it crossed) and
    a step of the RLF trajectory search (one ``successors`` call)."""

    def __init__(self, patch) -> None:
        self.whole_graph_searches = self.trajectory_steps = self.nodes = 0
        find_cycle, reachable_from = UnionGraph.find_cycle, UnionGraph.reachable_from
        successors, contracted = UnionGraph.successors, UnionGraph.cycle_through_flexible

        def counted_find_cycle(graph, within=None):
            self.whole_graph_searches += within is None
            self.nodes += len(graph._phases) + 1 if within is None else len(within)
            return find_cycle(graph, within)

        def counted_reachable_from(graph, start):
            reached = reachable_from(graph, start)
            self.nodes += len(reached)
            return reached

        def counted_successors(graph, node):
            self.trajectory_steps += 1
            return successors(graph, node)

        def counted_contracted(graph):
            before = graph._hops
            answer = contracted(graph)
            self.nodes += graph._hops - before
            return answer

        patch.setattr(UnionGraph, "find_cycle", counted_find_cycle)
        patch.setattr(UnionGraph, "reachable_from", counted_reachable_from)
        patch.setattr(UnionGraph, "successors", counted_successors)
        patch.setattr(UnionGraph, "cycle_through_flexible", counted_contracted)


def test_a_many_round_request_is_linear_in_its_schedule(monkeypatch):
    """Greedy-SLF's search and the SLF verification of its n - 2 rounds
    cost twice as much work on reversal(2000) as on reversal(1000): the
    order labels the search writes, plus what the verifier's graph
    queries cover.  On a clean schedule the settled induction runs no
    whole-graph cycle search at all.  Re-slotting the settled chain per
    reorder, or a whole-graph search per round, reads 4x."""
    work = {}
    for n in (1000, 2000):
        problem = reversal_instance(n)  # an oracle does not keep its problem
        oracle = SafetyOracle(problem, (SLF,))
        schedule = greedy_slf_schedule(
            oracle.problem, oracle=oracle, include_cleanup=False
        )
        with monkeypatch.context() as patch:
            graph = _GraphWork(patch)
            assert verify_schedule(schedule, (SLF,)).ok
        assert graph.whole_graph_searches == 0
        work[n] = oracle._relabelled + graph.nodes + graph.trajectory_steps
    assert work[2000] <= 2.2 * work[1000], work


def test_verifying_peacocks_wide_rounds_is_linear(monkeypatch):
    """RLF + blackhole verification of Peacock's three rounds covers
    twice the nodes on reversal(2000) as on reversal(1000), and no source
    walk needs the trajectory search (no union cycle is reachable)."""
    work = {}
    for n in (1000, 2000):
        schedule = peacock_schedule(reversal_instance(n), include_cleanup=False)
        with monkeypatch.context() as patch:
            graph = _GraphWork(patch)
            assert verify_schedule(schedule, (RLF, BH)).ok
        assert graph.trajectory_steps == 0
        work[n] = graph.nodes
    assert work[2000] <= 2.2 * work[1000], work
