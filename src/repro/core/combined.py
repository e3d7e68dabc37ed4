"""Scheduling under arbitrary property combinations (SIGMETRICS'16 [3]).

WayUp fixes WPE, Peacock fixes relaxed loop freedom; *Transiently Secure
Network Updates* (Ludwig et al., SIGMETRICS'16) studies the combination --
which is where both the NP-hardness and the outright infeasibility live
(see :func:`repro.core.hardness.crossing_instance`).

:func:`combined_greedy_schedule` packs greedy maximal rounds that satisfy
*every* requested property simultaneously.  Unlike the single-property
schedulers there is no progress guarantee: when no pending node can be
updated alone without violating some property, the instance is infeasible
for greedy round-by-round updating and :class:`InfeasibleUpdateError` is
raised (for small instances, :func:`repro.core.optimal.is_feasible` gives
the exact verdict).
"""

from __future__ import annotations

from repro.errors import InfeasibleUpdateError, UpdateModelError
from repro.core.oracle import SafetyOracle, oracle_for
from repro.core.packing import install_round, packed_schedule_rounds
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property


def combined_greedy_schedule(
    problem: UpdateProblem,
    properties: tuple[Property, ...],
    include_cleanup: bool = True,
    oracle: SafetyOracle | None = None,
) -> UpdateSchedule:
    """Greedy maximal rounds safe for all ``properties`` at once.

    Candidates are visited by decreasing new-path position (the order
    whose suffix-drains-to-destination argument powers the single-property
    greedies); installs go first, deletions last.  Raises
    :class:`InfeasibleUpdateError` on deadlock.  Every candidate is an
    apply/revert delta against the shared multi-property
    :class:`SafetyOracle`; probes <= pending nodes + wake-ups
    (:mod:`repro.core.packing`).
    """
    if not properties:
        raise UpdateModelError("combined scheduling needs at least one property")
    if Property.WPE in properties and problem.waypoint is None:
        raise UpdateModelError("cannot schedule for WPE without a waypoint")
    if not problem.required_updates:
        raise UpdateModelError("combined scheduler invoked on a no-op problem")
    properties = tuple(properties)
    if oracle is None:
        oracle = oracle_for(problem, properties)
    else:
        oracle.ensure_matches(problem, properties)

    install = install_round(problem)
    if install and not oracle.round_is_safe((), install):
        raise InfeasibleUpdateError(
            "installing new-only rules already violates "
            f"{[p.value for p in properties]}"
        )
    rounds, round_names = packed_schedule_rounds(
        problem,
        oracle,
        "flip",
        include_cleanup,
        stalled=lambda stuck: InfeasibleUpdateError(
            f"greedy deadlock under {[p.value for p in properties]}: "
            f"none of {stuck!r} can be updated safely"
        ),
    )
    return UpdateSchedule(
        problem,
        rounds,
        algorithm="combined-greedy",
        metadata={
            "round_names": round_names,
            "properties": [p.value for p in properties],
        },
    )


def strongest_feasible_schedule(
    problem: UpdateProblem,
    include_cleanup: bool = True,
) -> tuple[UpdateSchedule, tuple[Property, ...]]:
    """Best-effort: try property combinations from strongest to weakest.

    Order (waypointed): WPE+SLF+BH, WPE+RLF+BH, WPE+BH, RLF+BH, BH.
    Returns the first combination the greedy can realize, with the
    schedule.  Mirrors how an operator would degrade gracefully when the
    full combination is infeasible.
    """
    ladder: list[tuple[Property, ...]] = []
    if problem.waypoint is not None:
        ladder.extend([
            (Property.WPE, Property.SLF, Property.BLACKHOLE),
            (Property.WPE, Property.RLF, Property.BLACKHOLE),
            (Property.WPE, Property.BLACKHOLE),
        ])
    ladder.extend([
        (Property.SLF, Property.BLACKHOLE),
        (Property.RLF, Property.BLACKHOLE),
        (Property.BLACKHOLE,),
    ])
    last_error: InfeasibleUpdateError | None = None
    for properties in ladder:
        try:
            schedule = combined_greedy_schedule(
                problem, properties, include_cleanup=include_cleanup
            )
        except InfeasibleUpdateError as exc:
            last_error = exc
            continue
        return schedule, properties
    raise InfeasibleUpdateError(
        f"even blackhole freedom alone is greedy-infeasible: {last_error}"
    )
