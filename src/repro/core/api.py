"""The uniform scheduling envelope: ``ScheduleRequest`` → ``ScheduleResult``.

Every layer above :mod:`repro.core` -- CLI, REST, campaign engine,
benchmarks, examples -- schedules through this module instead of calling
individual scheduler functions with their private kwargs:

* a :class:`ScheduleRequest` carries the problem, the registry spec string
  (see :mod:`repro.core.registry` for the grammar), cleanup and verify
  flags, an explicit verification target, an oracle-reuse handle, engine
  params, and an optional wall-clock budget (``timeout_s``: a
  :func:`~repro.core.deadline.time_limit` around search and
  verification, polled by their loops, so it holds on whichever thread
  executes the request -- cooperative, exact to one poll interval);
* :func:`execute_request` resolves the scheduler, runs it under the
  budget, verifies the produced schedule (against the explicit properties
  if given, else against the scheduler's realized guarantee -- a
  guarantee-free baseline has nothing to verify), and packages everything
  into a :class:`ScheduleResult` with wall time and the
  :class:`~repro.core.oracle.SafetyOracle` counter deltas of the request:
  what the oracles handed out to *this* request (through
  :func:`~repro.core.oracle.oracle_for`, or passed in as ``oracle``)
  counted between hand-out and the end of the request -- a
  :class:`~repro.core.oracle.RequestScope`, so the figures are exact per
  thread under concurrent requests and cost O(oracles touched);
* :func:`schedule_update` is the one-line convenience wrapper::

      from repro import schedule_update

      result = schedule_update(problem, "peacock", verify=True)
      assert result.verified and result.schedule.n_rounds <= 4

Two-phase plans ride the same envelope: their verification holds by
construction (version isolation), so the report is synthesized rather
than model-checked, and the ``schedule`` field carries the
:class:`~repro.core.twophase.TwoPhaseSchedule` (which speaks the common
rounds / ``total_updates`` / ``to_dict`` surface).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import UpdateModelError, VerificationError
from repro.obs import trace as obs
from repro.core.deadline import time_limit
from repro.core.oracle import RequestScope, SafetyOracle
from repro.core.problem import UpdateProblem
from repro.core.registry import PROPERTY_NAMES, Scheduler, resolve_scheduler
from repro.core.twophase import TwoPhaseSchedule
from repro.core.verify import Property, VerificationReport, verify_schedule
from repro.metrics.collector import Histogram

#: Every :func:`execute_request` of the process, in fixed buckets (no
#: sample is kept per request); ``GET /metrics`` reads them through
#: :func:`request_histograms`.  One lock serializes both.
_WALL_MS = Histogram("api.schedule.wall_ms")
_ROUNDS = Histogram("api.schedule.rounds")
_HISTOGRAMS_LOCK = threading.Lock()


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling request against the registry.

    ``properties`` is the explicit verification target; ``None`` means
    "verify the scheduler against what it promises".  ``oracle`` lets a
    caller thread a pre-warmed :class:`SafetyOracle` through (schedulers
    that take no oracle ignore it via their registry adapter).  ``params``
    are engine options merged over the spec string's ``?key=value`` ones.
    ``timeout_s`` bounds search plus verification in wall-clock seconds
    on the executing thread (:mod:`repro.core.deadline`); running out
    raises :class:`~repro.errors.ScheduleTimeoutError`.
    """

    problem: UpdateProblem
    scheduler: str = "wayup"
    include_cleanup: bool = True
    verify: bool = False
    properties: tuple[Property, ...] | None = None
    oracle: SafetyOracle | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.properties is not None:
            object.__setattr__(self, "properties", tuple(self.properties))
        object.__setattr__(self, "params", dict(self.params))

    def resolved(self) -> Scheduler:
        return resolve_scheduler(self.scheduler)


@dataclass
class ScheduleResult:
    """The uniform result envelope.

    ``scheduler`` is the canonical registry name actually used (aliases
    and property lists normalized); ``guarantee`` the realized property
    tuple; ``report`` the verification outcome (``None`` when nothing was
    verified); ``oracle_stats`` the counter deltas (memo hits/misses,
    applies, Pearce-Kelly work) of the :class:`SafetyOracle` objects this
    request was handed, zero ones omitted -- other requests' work never
    shows, whichever thread they run on.
    """

    scheduler: str
    schedule: Any
    guarantee: tuple[Property, ...]
    detail: str | None
    report: VerificationReport | None
    wall_ms: float
    oracle_stats: dict[str, int]
    request: ScheduleRequest

    @property
    def verified(self) -> bool | None:
        """Verification verdict: True/False, or None if nothing verified."""
        return None if self.report is None else self.report.ok

    @property
    def n_rounds(self) -> int:
        return self.schedule.n_rounds

    def to_dict(self) -> dict:
        """JSON-compatible serialization (the REST / CLI wire format)."""
        data: dict = {
            "scheduler": self.scheduler,
            "schedule": self.schedule.to_dict(),
            "rounds": self.schedule.n_rounds,
            "touches": self.schedule.total_updates(),
            "guarantee": [PROPERTY_NAMES[p] for p in self.guarantee],
            "detail": self.detail,
            "verified": self.verified,
            "wall_ms": round(self.wall_ms, 3),
            "oracle": dict(self.oracle_stats),
        }
        if self.report is not None:
            data["verified_properties"] = [
                PROPERTY_NAMES[p] for p in self.report.properties
            ]
            data["verification_method"] = self.report.method
            data["violations"] = [str(v) for v in self.report.violations]
        return data


def _verify_outcome(schedule, properties) -> VerificationReport | None:
    """The envelope's verification half (``None`` = nothing to check)."""
    if isinstance(schedule, TwoPhaseSchedule):
        report = schedule.verification_report()
        if not properties:
            return report
        missing = [p for p in properties if p not in report.properties]
        if missing:
            # only WPE-without-waypoint can be missing; mirror the
            # model-checking path, which refuses that query outright
            raise VerificationError(
                f"cannot check {[p.value for p in missing]} on this plan"
            )
        return VerificationReport(
            ok=True,
            rounds_checked=report.rounds_checked,
            properties=tuple(properties),
            method=report.method,
        )
    if not properties:
        return None
    return verify_schedule(schedule, properties=tuple(properties))


def execute_request(request: ScheduleRequest) -> ScheduleResult:
    """Run one :class:`ScheduleRequest` through the registry.

    Raises the scheduler's own errors untranslated --
    :class:`~repro.errors.InfeasibleUpdateError`,
    :class:`~repro.errors.UpdateModelError`,
    :class:`~repro.errors.SchedulerSpecError`,
    :class:`~repro.errors.ScheduleTimeoutError` -- so callers keep their
    existing error taxonomy (the campaign runner maps them to cell
    statuses, REST to HTTP codes).
    """
    scheduler = request.resolved()
    problem = request.problem
    if scheduler.requires_waypoint and problem.waypoint is None:
        raise UpdateModelError(
            f"scheduler {scheduler.name!r} requires a waypointed problem"
        )
    started = time.perf_counter()
    # the budget opens first: the problem tables the span's attributes
    # pull in are part of what the request costs
    with time_limit(request.timeout_s), RequestScope() as scope, obs.span(
        "api.execute_request",
        scheduler=scheduler.name,
        problem=problem.name,
        updates=len(problem.required_updates),
    ) as request_span:
        if request.oracle is not None:
            scope.note(request.oracle)
        with obs.span("api.search", scheduler=scheduler.name):
            run = scheduler.run(
                problem,
                include_cleanup=request.include_cleanup,
                oracle=request.oracle,
                params=request.params,
            )
        if request.verify:
            with obs.span("api.verify"):
                report = _verify_outcome(
                    run.schedule, request.properties or run.guarantee
                )
        else:
            report = None
        wall_ms = (time.perf_counter() - started) * 1000.0
        oracle_stats = scope.deltas()
        request_span.set_attrs(
            rounds=run.schedule.n_rounds,
            wall_ms=round(wall_ms, 3),
            **{f"oracle.{key}": value for key, value in oracle_stats.items()},
        )
    with _HISTOGRAMS_LOCK:
        _WALL_MS.observe(wall_ms)
        _ROUNDS.observe(run.schedule.n_rounds)
    return ScheduleResult(
        scheduler=scheduler.name,
        schedule=run.schedule,
        guarantee=run.guarantee,
        detail=run.detail,
        report=report,
        wall_ms=wall_ms,
        oracle_stats=oracle_stats,
        request=request,
    )


def request_histograms() -> tuple[Histogram, Histogram]:
    """Consistent snapshots of the wall-time (ms) and round-count
    histograms of every request this process executed."""
    with _HISTOGRAMS_LOCK:
        return _WALL_MS.snapshot(), _ROUNDS.snapshot()


def schedule_update(
    problem: UpdateProblem, scheduler: str = "wayup", **options: Any
) -> ScheduleResult:
    """Convenience wrapper: build the request, execute it, return the result.

    ``options`` are :class:`ScheduleRequest` fields (``include_cleanup``,
    ``verify``, ``properties``, ``oracle``, ``params``, ``timeout_s``).
    """
    return execute_request(
        ScheduleRequest(problem=problem, scheduler=scheduler, **options)
    )
