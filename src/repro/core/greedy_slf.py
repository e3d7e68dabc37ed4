"""Greedy strong-loop-free scheduler (the comparator Peacock relaxes).

Each round flips a maximal set of pending nodes such that the round's union
graph stays acyclic -- i.e. *no* transient configuration, reachable or not,
contains a forwarding loop.  This is the classic greedy from the
consistent-updates literature; PODC'15 shows strong loop freedom inherently
needs Omega(n) rounds on adversarial instances, which this scheduler makes
visible in benchmark E3.

Progress argument: the pending node with the highest new-path position has a
new edge that enters a fully updated suffix draining to the destination, so
it can always be flipped alone without closing a cycle; the greedy therefore
never stalls.
"""

from __future__ import annotations

from repro.errors import UpdateModelError
from repro.core.oracle import SafetyOracle, oracle_for
from repro.core.packing import packed_schedule_rounds
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property


def greedy_slf_schedule(
    problem: UpdateProblem,
    include_cleanup: bool = True,
    oracle: SafetyOracle | None = None,
) -> UpdateSchedule:
    """Compute a strong-loop-free schedule with greedy maximal rounds.

    Each candidate is an apply/revert delta against the persistent union
    graph of the shared :class:`SafetyOracle`, whose Pearce-Kelly order
    maintenance answers the acyclicity query by moving the candidate
    alone.  A rejected candidate is probed again only once a node its
    violation witness needs OLD has been committed, so probes <= pending
    nodes + wake-ups, not pending x rounds (:mod:`repro.core.packing`).
    """
    if not problem.required_updates:
        raise UpdateModelError(
            "greedy SLF scheduler invoked on a problem with no rule changes"
        )
    if oracle is None:
        oracle = oracle_for(problem, (Property.SLF,))
    else:
        oracle.ensure_matches(problem, (Property.SLF,))

    rounds, round_names = packed_schedule_rounds(
        problem,
        oracle,
        "flip",
        include_cleanup,
        stalled=lambda stuck: UpdateModelError(
            f"greedy SLF made no progress with pending nodes {stuck!r}"
        ),
    )
    return UpdateSchedule(
        problem,
        rounds,
        algorithm="greedy-slf",
        metadata={"round_names": round_names, "property": Property.SLF.value},
    )
