"""Churn-run accounting: lifecycles, quiescence, transient violations.

The online controller feeds three layers of measurement:

* per-request :class:`UpdateLifecycle` records (arrival → settle, with
  the executed :class:`~repro.sim.events.RoundTiming` list
  -- dumped via the partial-tolerant ``to_dict`` so a dump taken mid-update
  never crashes on a still-running round);
* a global :class:`~repro.dataplane.violations.ViolationCounters` fed by
  the probe checker -- every rule-walk probe is one "packet" classified
  into the dataplane vocabulary (delivered / bypassed / looped /
  dropped);
* scalar fleet counters (rounds issued, peak in-flight updates,
  re-plans, restorations, time to quiescence).

``to_dict`` is wall-clock-free and key-sorted at serialization time, so
two same-seed runs produce byte-identical JSON -- the determinism gate
of ``make churn-smoke``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataplane.violations import PacketFate, ViolationCounters
from repro.sim.events import RoundTiming

#: Terminal request statuses (everything else is still moving).
SETTLED_STATUSES = frozenset(
    {"done", "cancelled", "aborted", "superseded", "noop"}
)


@dataclass
class UpdateLifecycle:
    """One request's arrival→quiescence record."""

    request_id: str
    flow_id: str
    arrived_ms: float
    waypointed: bool = False
    started_ms: float | None = None
    settled_ms: float | None = None
    status: str = "queued"
    rounds: list[RoundTiming] = field(default_factory=list)
    flips: int = 0
    replans: int = 0
    probes: int = 0
    violations: int = 0

    @property
    def settled(self) -> bool:
        return self.status in SETTLED_STATUSES

    @property
    def time_to_quiescence_ms(self) -> float | None:
        if self.settled_ms is None:
            return None
        return self.settled_ms - self.arrived_ms

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "flow_id": self.flow_id,
            "arrived_ms": self.arrived_ms,
            "started_ms": self.started_ms,
            "settled_ms": self.settled_ms,
            "time_to_quiescence_ms": self.time_to_quiescence_ms,
            "status": self.status,
            "waypointed": self.waypointed,
            # a dump taken mid-run may hold a running round
            "rounds": [timing.to_dict() for timing in self.rounds],
            "n_rounds": len(self.rounds),
            "flips": self.flips,
            "replans": self.replans,
            "probes": self.probes,
            "violations": self.violations,
        }


@dataclass
class ChurnMetrics:
    """Aggregates over one churn-trace run."""

    arrivals: int = 0
    completed: int = 0
    cancelled: int = 0
    cancels_noop: int = 0
    aborted: int = 0
    superseded: int = 0
    noops: int = 0
    replans: int = 0
    restorations: int = 0
    rounds_issued: int = 0
    flips: int = 0
    peak_in_flight: int = 0
    failed_link_crossings: int = 0
    time_to_quiescence_ms: float = 0.0
    violations: ViolationCounters = field(default_factory=ViolationCounters)
    lifecycles: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def lifecycle(self, request_id: str) -> UpdateLifecycle:
        return self.lifecycles[request_id]

    def open_lifecycle(self, record: UpdateLifecycle) -> None:
        """Register a lifecycle; the caller bumps ``arrivals`` (trace
        stimuli) or ``restorations`` (controller-synthesized repairs)."""
        self.lifecycles[record.request_id] = record

    def record_probe(
        self, record: UpdateLifecycle, fate: PacketFate, crossed_failed_link: bool
    ) -> None:
        """Classify one rule-walk probe into the dataplane vocabulary.

        A probe whose walk crosses a failed link is a *physical* loss --
        the packet dies at the dead link no matter how the update was
        scheduled -- so it lands in ``failed_link_crossings`` instead of
        the scheduling-violation counters.
        """
        record.probes += 1
        if crossed_failed_link:
            self.failed_link_crossings += 1
            return
        self.violations.injected += 1
        self.violations.record(fate)
        if fate not in (PacketFate.DELIVERED, PacketFate.IN_FLIGHT):
            record.violations += 1

    def settle(self, record: UpdateLifecycle, status: str, now_ms: float) -> None:
        record.status = status
        record.settled_ms = now_ms
        self.time_to_quiescence_ms = max(self.time_to_quiescence_ms, now_ms)
        counter = {
            "done": "completed",
            "cancelled": "cancelled",
            "aborted": "aborted",
            "superseded": "superseded",
            "noop": "noops",
        }[status]
        setattr(self, counter, getattr(self, counter) + 1)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def transient_violations(self) -> int:
        """Probe fates a consistent update forbids (the checker's tally)."""
        return self.violations.violations

    @property
    def quiescent(self) -> bool:
        return all(record.settled for record in self.lifecycles.values())

    def mean_time_to_quiescence_ms(self) -> float:
        durations = [
            record.time_to_quiescence_ms
            for record in self.lifecycles.values()
            if record.time_to_quiescence_ms is not None
        ]
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def to_dict(self) -> dict:
        lifecycles = [
            self.lifecycles[request_id].to_dict()
            for request_id in sorted(self.lifecycles)
        ]
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "cancels_noop": self.cancels_noop,
            "aborted": self.aborted,
            "superseded": self.superseded,
            "noops": self.noops,
            "replans": self.replans,
            "restorations": self.restorations,
            "rounds_issued": self.rounds_issued,
            "flips": self.flips,
            "peak_in_flight": self.peak_in_flight,
            "failed_link_crossings": self.failed_link_crossings,
            "time_to_quiescence_ms": self.time_to_quiescence_ms,
            "mean_time_to_quiescence_ms": round(
                self.mean_time_to_quiescence_ms(), 6
            ),
            "quiescent": self.quiescent,
            "transient_violations": self.transient_violations,
            "violations": self.violations.as_dict(),
            "lifecycles": lifecycles,
        }
