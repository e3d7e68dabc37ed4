"""Two-phase commit baseline (Reitblatt-style per-packet consistency).

The classic alternative to round scheduling: internal switches *pre-stage*
the new rules under a fresh version tag (round 1), then the ingress flips to
stamping packets with the new tag (round 2), and stale rules are garbage
collected once in-flight packets drained (round 3).  Per-packet consistency
follows *by construction* -- a packet only ever sees one rule version -- so
the transient union-graph verifiers are unnecessary; the price is double
rule capacity at every shared switch during the transition, which E2/E5
quantify against WayUp and Peacock.

In the abstract binary-state model of :mod:`repro.core`, version isolation
cannot be expressed (a node has one rule).  :class:`TwoPhaseSchedule`
therefore carries the three *phases* plus accounting metadata, and the
netlab executor materializes it faithfully with VLAN-tag matches on the
simulated switches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import UpdateModelError
from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.verify import Property, VerificationReport

#: VLAN id used to tag packets of the new policy version.
NEW_VERSION_TAG = 2

#: VLAN id representing the old (untagged in practice) policy version.
OLD_VERSION_TAG = 1


@dataclass(frozen=True)
class TwoPhaseSchedule:
    """A two-phase update plan: prepare, flip ingress, garbage-collect.

    ``prepare`` holds every non-ingress node that needs a versioned new
    rule; ``ingress`` is the source; ``garbage`` are the nodes whose old
    rules are removed at the end (all old-path forwarding nodes).
    """

    problem: UpdateProblem
    prepare: frozenset
    ingress: object
    garbage: frozenset
    algorithm: str = "two-phase"

    @property
    def n_rounds(self) -> int:
        """Barrier-separated phases (prepare / flip / collect, empty skipped)."""
        return len(self.rounds)

    @property
    def rounds(self) -> tuple[frozenset, ...]:
        """Phase contents in execution order (ingress alone in phase 2)."""
        phases: list[frozenset] = []
        if self.prepare:
            phases.append(self.prepare)
        phases.append(frozenset({self.ingress}))
        if self.garbage:
            phases.append(self.garbage)
        return tuple(phases)

    @property
    def metadata(self) -> dict:
        """Envelope parity with :class:`~repro.core.schedule.UpdateSchedule`."""
        names: list[str] = []
        if self.prepare:
            names.append("prepare")
        names.append("flip-ingress")
        if self.garbage:
            names.append("collect")
        return {
            "round_names": names,
            "version_tags": [OLD_VERSION_TAG, NEW_VERSION_TAG],
        }

    def scheduled_nodes(self) -> frozenset:
        return frozenset().union(*self.rounds)

    def total_updates(self) -> int:
        """FlowMod touches across phases (versioned adds + flip + deletes)."""
        return sum(len(phase) for phase in self.rounds)

    def includes_cleanup(self) -> bool:
        """True when every stale old rule is garbage-collected at the end."""
        return self.problem.cleanup_updates <= self.scheduled_nodes()

    def without_cleanup(self) -> "TwoPhaseSchedule":
        """The plan minus its garbage-collection phase (stale rules stay)."""
        if not self.garbage:
            return self
        return replace(self, garbage=frozenset())

    def to_dict(self) -> dict:
        """Wire format, shaped like ``UpdateSchedule.to_dict`` plus phases."""
        return {
            "algorithm": self.algorithm,
            "rounds": [sorted(r, key=repr) for r in self.rounds],
            "metadata": self.metadata,
            "prepare": sorted(self.prepare, key=repr),
            "ingress": self.ingress,
            "garbage": sorted(self.garbage, key=repr),
        }

    def verification_report(self) -> VerificationReport:
        """Consistency holds by construction (version isolation).

        Returned for interface parity with round schedules; per-packet
        consistency implies WPE, strong loop freedom and blackhole freedom.
        """
        return VerificationReport(
            ok=True,
            rounds_checked=self.n_rounds,
            properties=(Property.WPE, Property.SLF, Property.RLF, Property.BLACKHOLE)
            if self.problem.waypoint is not None
            else (Property.SLF, Property.RLF, Property.BLACKHOLE),
            method="by-construction (version tagging)",
        )


def two_phase_schedule(problem: UpdateProblem) -> TwoPhaseSchedule:
    """Build the two-phase plan for ``problem``."""
    if not problem.required_updates and not problem.cleanup_updates:
        raise UpdateModelError("two-phase invoked on a problem with no rule changes")
    source = problem.source
    prepare = frozenset(
        node
        for node in problem.new_path.nodes
        if node not in (source, problem.destination)
    )
    garbage = frozenset(
        node
        for node in problem.old_path.nodes
        if node != problem.destination
        and problem.kind(node) in (UpdateKind.SWITCH, UpdateKind.DELETE, UpdateKind.NOOP)
    )
    return TwoPhaseSchedule(
        problem=problem, prepare=prepare, ingress=source, garbage=garbage
    )
