"""Transient-consistency verifiers.

Four properties from the paper and its companion papers are supported:

* **WPE** -- waypoint enforcement: no transient configuration lets a packet
  travel source -> destination without traversing the waypoint.
* **SLF** -- strong loop freedom: no transient configuration contains a
  forwarding cycle anywhere in the network.
* **RLF** -- relaxed loop freedom: no transient configuration sends packets
  *entering at the source* into a cycle (cycles unreachable from the source
  are tolerated; PODC'15).
* **BLACKHOLE** -- no transient configuration forwards a packet to a node
  without an applicable rule.

WPE, SLF and BLACKHOLE have exact polynomial checks on the round's union
graph (see :mod:`repro.core.transient`); across the rounds of one schedule
SLF is checked in time linear in what each round changes
(:func:`verify_schedule`), with :func:`verify_round` as the from-scratch
reference.  RLF is checked exactly by a branching trajectory search with a
cheap sound pre-filter; a conservative mode answers "maybe unsafe" instead
of paying the worst-case exponential cost.  An exhaustive oracle validates
all of the above in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import VerificationBudgetError, VerificationError
from repro.core.deadline import check_deadline
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.transient import (
    UnionGraph,
    enumerate_round_configurations,
    functional_cycle,
)
from repro.topology.graph import NodeId

#: State cap of the exact relaxed-loop-freedom trajectory search.  Both RLF
#: searches (:func:`check_rlf` and the oracle's) read it through this module
#: at query time, so patching ``repro.core.verify.RLF_BUDGET`` reaches both.
RLF_BUDGET = 200_000


class Property(enum.Enum):
    """Transient properties a schedule can be verified against."""

    WPE = "waypoint-enforcement"
    SLF = "strong-loop-freedom"
    RLF = "relaxed-loop-freedom"
    BLACKHOLE = "blackhole-freedom"


@dataclass(frozen=True)
class Violation:
    """A concrete transient violation with a machine-checkable witness."""

    prop: Property
    round_index: int
    witness: tuple
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[round {self.round_index}] {self.prop.value}: {self.description} "
            f"(witness: {' -> '.join(map(repr, self.witness))})"
        )


@dataclass
class VerificationReport:
    """Outcome of verifying a schedule against a set of properties."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)
    rounds_checked: int = 0
    properties: tuple[Property, ...] = ()
    method: str = "polynomial"
    conservative_hits: int = 0

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def by_property(self, prop: Property) -> list[Violation]:
        return [v for v in self.violations if v.prop is prop]


def default_properties(problem: UpdateProblem) -> tuple[Property, ...]:
    """What 'transiently secure' means by default for a problem.

    Waypointed problems check WPE (the WayUp guarantee); all problems check
    blackhole freedom.  Loop-freedom flavours are opt-in because WayUp
    deliberately trades them away (HotNets'14).
    """
    props: list[Property] = [Property.BLACKHOLE]
    if problem.waypoint is not None:
        props.append(Property.WPE)
    return tuple(props)


# ---------------------------------------------------------------------------
# per-round checks on the union graph
# ---------------------------------------------------------------------------

def check_wpe(union: UnionGraph, round_index: int) -> Violation | None:
    """Waypoint enforcement via s->d reachability avoiding w (exact)."""
    problem = union.problem
    if problem.waypoint is None:
        raise VerificationError("cannot check WPE without a waypoint")
    path = union.path_to(problem.destination, avoid=problem.waypoint)
    if path is None:
        return None
    return Violation(
        prop=Property.WPE,
        round_index=round_index,
        witness=path,
        description=(
            f"packets can reach {problem.destination!r} bypassing waypoint "
            f"{problem.waypoint!r}"
        ),
    )


def check_slf(
    union: UnionGraph, round_index: int, settled: bool = False
) -> Violation | None:
    """Strong loop freedom via union-graph acyclicity (exact).

    ``settled`` vouches that the union graph one round earlier (the old
    path, before round 0) was acyclic: a new cycle then runs through a
    flexible node, and only when :meth:`UnionGraph.cycle_through_flexible`
    cannot rule that out does the whole graph get searched.
    """
    if settled and not union.cycle_through_flexible():
        return None
    cycle = union.find_cycle()
    if cycle is None:
        return None
    return Violation(
        prop=Property.SLF,
        round_index=round_index,
        witness=cycle,
        description="a transient configuration contains a forwarding loop",
    )


def check_blackhole(union: UnionGraph, round_index: int) -> Violation | None:
    """Blackhole freedom via reachable may-drop nodes (exact)."""
    hit = union.reachable_drop()
    if hit is None:
        return None
    path, node = hit
    return Violation(
        prop=Property.BLACKHOLE,
        round_index=round_index,
        witness=path,
        description=f"packets can reach {node!r} which may lack a rule",
    )


def check_rlf(
    union: UnionGraph,
    round_index: int,
    exact: bool = True,
) -> tuple[Violation | None, bool]:
    """Relaxed loop freedom.

    Returns ``(violation, conservative)``: in exact mode ``conservative`` is
    always False.  In conservative mode a reachable union-graph cycle is
    reported as a (possibly spurious) violation with ``conservative=True``.

    Exact mode runs the sound pre-filter first (no union cycle reachable
    from the source means provably safe), then a branching trajectory
    search: walk from the source, fixing each flexible node's state the
    first time the walk meets it; revisiting any node is a realizable
    s-reachable loop.  Past :data:`RLF_BUDGET` walk states it raises
    :class:`~repro.errors.VerificationBudgetError`.
    """
    problem = union.problem
    source = problem.source
    reachable = set(union.reachable_from(source))
    cycle = union.find_cycle(within=reachable)
    if cycle is None:
        return None, False
    if not exact:
        return (
            Violation(
                prop=Property.RLF,
                round_index=round_index,
                witness=cycle,
                description=(
                    "a union-graph cycle is reachable from the source "
                    "(conservative check; may be spurious)"
                ),
            ),
            True,
        )
    witness = _rlf_trajectory_witness(union)
    if witness is None:
        return None, False
    return (
        Violation(
            prop=Property.RLF,
            round_index=round_index,
            witness=witness,
            description="packets entering at the source can loop",
        ),
        False,
    )


def _rlf_trajectory_witness(union: UnionGraph) -> tuple[NodeId, ...] | None:
    """Branching DFS over source trajectories; returns a looping walk or None.

    Every walk fixes the state of each flexible node on first visit, so a
    revisited node closes a cycle that one concrete configuration realizes.
    Depth is bounded by the node count; branching only happens at flexible
    nodes that lie *on* the walk.
    """
    problem = union.problem
    destination = problem.destination
    budget = RLF_BUDGET
    states_explored = 0

    source = problem.source
    if source == destination:  # degenerate, excluded by Path validation
        return None
    walk: list[NodeId] = [source]
    on_walk: set = {source}
    pending: list[list[NodeId]] = [union.successors(source)]

    while pending:
        states_explored += 1
        if states_explored > budget:
            raise VerificationBudgetError(
                f"relaxed-loop-freedom search exceeded {budget} states"
            )
        options = pending[-1]
        if not options:
            pending.pop()
            on_walk.discard(walk.pop())
            continue
        target = options.pop()
        if target in on_walk:
            return tuple(walk) + (target,)
        if target == destination:
            continue
        walk.append(target)
        on_walk.add(target)
        pending.append(union.successors(target))
    return None


# ---------------------------------------------------------------------------
# schedule-level verification
# ---------------------------------------------------------------------------

def _check_union(
    union: UnionGraph,
    round_index: int,
    properties: tuple[Property, ...],
    exact_rlf: bool,
    settled: bool = False,
) -> tuple[list[Violation], int]:
    """Run every property check on one round's union graph (``settled``:
    see :func:`check_slf`)."""
    violations: list[Violation] = []
    conservative_hits = 0
    for prop in properties:
        if prop is Property.WPE:
            found = check_wpe(union, round_index)
        elif prop is Property.SLF:
            found = check_slf(union, round_index, settled)
        elif prop is Property.BLACKHOLE:
            found = check_blackhole(union, round_index)
        elif prop is Property.RLF:
            found, conservative = check_rlf(union, round_index, exact=exact_rlf)
            if conservative and found is not None:
                conservative_hits += 1
        else:  # pragma: no cover - enum is closed
            raise VerificationError(f"unknown property {prop!r}")
        if found is not None:
            violations.append(found)
    return violations, conservative_hits


def verify_round(
    schedule: UpdateSchedule,
    round_index: int,
    properties: tuple[Property, ...],
    exact_rlf: bool = True,
) -> tuple[list[Violation], int]:
    """Check one round on a union graph built from scratch; returns
    ``(violations, conservative_hits)``."""
    union = UnionGraph.for_round(schedule, round_index)
    return _check_union(union, round_index, properties, exact_rlf)


def verify_schedule(
    schedule: UpdateSchedule,
    properties: tuple[Property, ...] | None = None,
    exact_rlf: bool = True,
) -> VerificationReport:
    """Verify every round of a schedule against ``properties``.

    With ``properties=None`` the defaults of :func:`default_properties`
    apply.  The report's ``ok`` is True iff no violation was found; in
    conservative RLF mode a reported violation may be spurious and
    ``conservative_hits`` counts those.

    One union graph is built for round 0 and walked from round to round
    (:meth:`UnionGraph.advance` re-derives the nodes of the two rounds
    involved, nothing else).  Strong loop freedom goes by induction over
    the rounds: while every round so far was clean, only cycles through
    the round's own nodes are looked for (:func:`check_slf`); the first
    violation ends that, and from there every round gets the whole-graph
    search again.  Reports, witnesses included, are those of a fold of
    :func:`verify_round`.
    """
    if properties is None:
        properties = default_properties(schedule.problem)
    report = VerificationReport(ok=True, properties=tuple(properties))
    rounds = schedule.rounds
    settled = True  # the old path has no cycle
    for round_index, round_nodes in enumerate(rounds):
        check_deadline()
        if round_index == 0:
            union = UnionGraph.for_round(schedule, 0)
        else:
            union.advance(rounds[round_index - 1], round_nodes)
        violations, conservative_hits = _check_union(
            union, round_index, properties, exact_rlf, settled
        )
        report.rounds_checked += 1
        report.conservative_hits += conservative_hits
        if violations:
            settled = False
            report.ok = False
            report.violations.extend(violations)
    return report


# ---------------------------------------------------------------------------
# exhaustive oracle (testing / small instances)
# ---------------------------------------------------------------------------

def verify_exhaustive(
    schedule: UpdateSchedule,
    properties: tuple[Property, ...] | None = None,
    max_flexible: int = 16,
) -> VerificationReport:
    """Brute-force verification by enumerating every transient configuration.

    Exponential in the round size; exists to validate the polynomial
    verifiers and to double-check small, critical scenarios (E1).
    """
    problem = schedule.problem
    if properties is None:
        properties = default_properties(problem)
    report = VerificationReport(
        ok=True, properties=tuple(properties), method="exhaustive"
    )
    want_wpe = Property.WPE in properties
    if want_wpe and problem.waypoint is None:
        raise VerificationError("cannot check WPE without a waypoint")
    for round_index in range(schedule.n_rounds):
        report.rounds_checked += 1
        for config in enumerate_round_configurations(
            schedule, round_index, max_flexible=max_flexible
        ):
            walk = config.walk_from_source()
            if want_wpe and walk.delivered and not walk.traversed(problem.waypoint):
                report.violations.append(
                    Violation(
                        Property.WPE,
                        round_index,
                        walk.visited,
                        "delivered without traversing the waypoint",
                    )
                )
            if Property.RLF in properties and walk.looped:
                report.violations.append(
                    Violation(
                        Property.RLF, round_index, walk.visited, "source walk loops"
                    )
                )
            if Property.BLACKHOLE in properties and walk.dropped:
                report.violations.append(
                    Violation(
                        Property.BLACKHOLE,
                        round_index,
                        walk.visited,
                        "source walk is dropped",
                    )
                )
            if Property.SLF in properties:
                cycle = functional_cycle(config)
                if cycle is not None:
                    report.violations.append(
                        Violation(
                            Property.SLF,
                            round_index,
                            cycle,
                            "configuration contains a forwarding loop",
                        )
                    )
    report.ok = not report.violations
    return report
