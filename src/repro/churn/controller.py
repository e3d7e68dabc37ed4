"""Online consistent-update controller under topology churn.

The batch pipeline schedules one :class:`~repro.core.problem.UpdateProblem`
at a time, from scratch.  This controller instead lives on the
deterministic simulator and absorbs a *stream* of stimuli -- arrivals,
cancellations, link failures -- while keeping every in-flight update
transiently safe.  The design centres on three ideas:

**One long-lived oracle per update.**  Each admitted request builds its
:class:`~repro.core.oracle.SafetyOracle` once and then drives it purely
through deltas across every round of its lifetime: ``try_apply`` grows a
round greedily, ``commit_round`` settles it when the switches confirm,
``revert`` retracts a planned-but-unissued round, and the next round
continues from the committed state -- the union graph is never rebuilt.

**A retractable plan window.**  Planning a round (``try_apply`` calls)
and issuing it to the switches are separated by ``plan_latency_ms``.
Until the issue instant the round exists only inside the oracle, so a
cancellation, preemption, or link failure in that window reverts the
flexible nodes and retracts the issue timer
(:meth:`~repro.sim.events.ScheduledEvent.cancel`) -- nothing physical
happened yet.  Once issued, flips are irreversible: interruptions wait
for the round boundary, where the round commits first.

**Failure-driven re-planning.**  A link failure invalidates every update
whose target crosses the dead link and strands idle flows whose
installed path crosses it.  The controller re-plans the former and
synthesizes *restoration* updates for the latter, processing
``replan_budget`` victims immediately and deferring the rest on
staggered timers (retracted if the victim settles first).  A re-plan
restarts the update from its *effective* current path -- the walk under
the committed-only configuration -- with a freshly sampled target that
avoids all failed links.

Safety is audited from the outside: every flip triggers one probe walk
from the source over the update's next-hop tables with the committed
nodes in their NEW state (:meth:`~repro.core.problem.UpdateProblem.walk`),
classified with the dataplane vocabulary
(:class:`~repro.dataplane.violations.PacketFate`).  In scheduled mode
the oracle guarantees every probe is clean -- any subset of an
oracle-safe round's flips is a configuration the FLEX phase already
covered.  The unscheduled one-shot baseline (``scheduled=False``) flips
everything in one staggered round and shows the violations the paper's
schedulers exist to prevent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.churn.events import (
    ChurnError,
    ChurnEvent,
    LinkFailure,
    UpdateArrival,
    UpdateCancel,
)
from repro.churn.metrics import ChurnMetrics, UpdateLifecycle
from repro.churn.traces import ChurnTrace, sample_simple_path
from repro.controller.update_queue import RoundTiming
from repro.core.deadline import check_deadline
from repro.core.oracle import oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.dataplane.violations import PacketFate
from repro.obs import trace as obs
from repro.sim.random_source import RandomStreams, derive_seed
from repro.sim.simulator import Simulator

#: Lifecycle phases of an in-flight update.
PLANNING = "planning"    # round chosen in the oracle, issue timer pending
EXECUTING = "executing"  # flips in flight; irreversible until the boundary
IDLE = "idle"            # between rounds (next-plan timer pending)


@dataclass
class ChurnPolicy:
    """Knobs of the online controller.

    ``preempt`` is the defer-vs-preempt switch: a mid-update arrival for
    a flow either supersedes the in-flight update at the next safe point
    (preempt) or queues behind it (defer).  ``replan_budget`` bounds how
    many failure victims re-plan at the failure instant; the remainder
    re-plan on ``replan_defer_ms``-staggered timers.
    """

    scheduled: bool = True
    preempt: bool = True
    plan_latency_ms: float = 2.0
    flip_latency_ms: float = 1.0
    flip_stagger_ms: float = 0.5
    round_interval_ms: float = 1.0
    replan_budget: int = 2
    replan_defer_ms: float = 5.0
    max_replans: int = 3
    include_cleanup: bool = True


def policy_for_scheduler(scheduler, **overrides) -> ChurnPolicy:
    """Map a registry scheduler onto a churn policy.

    A scheduler with an empty consistency guarantee (the one-shot
    baseline) runs the unscheduled mode; everything else runs the
    oracle-backed scheduled mode.
    """
    return ChurnPolicy(scheduled=bool(scheduler.guarantee), **overrides)


@dataclass
class _Request:
    """An admitted (not yet settled) update request."""

    request_id: str
    target_path: tuple
    waypointed: bool
    record: UpdateLifecycle


@dataclass
class _ActiveUpdate:
    """The in-flight update of one flow."""

    request: _Request
    flow: "_FlowState"
    problem: UpdateProblem
    oracle: object  # SafetyOracle | None (unscheduled mode)
    target: tuple
    remaining: set
    committed: set = field(default_factory=set)
    phase: str = IDLE
    round_nodes: list = field(default_factory=list)
    flips_left: int = 0
    issue_event: object = None
    next_plan_event: object = None
    deferred_event: object = None
    cancel_requested: bool = False
    needs_replan: bool = False
    last_walk: object = None  # WalkResult of problem.walk(committed), or None

    @property
    def record(self) -> UpdateLifecycle:
        return self.request.record

    def walk(self):
        """``problem.walk(committed)``, replayed until a flip lands on it."""
        if self.last_walk is None:
            self.last_walk = self.problem.walk(self.committed)
        return self.last_walk


@dataclass
class _FlowState:
    """One long-lived flow: its installed path and its request queue."""

    spec: object
    current_path: tuple
    active: _ActiveUpdate | None = None
    pending: list = field(default_factory=list)
    restore_event: object = None


class OnlineChurnController:
    """Drive one churn trace to quiescence on a fresh simulator."""

    def __init__(self, trace: ChurnTrace, policy: ChurnPolicy | None = None):
        self.trace = trace
        self.policy = policy or ChurnPolicy()
        self.sim = Simulator()
        self.metrics = ChurnMetrics()
        self.streams = RandomStreams(derive_seed(trace.seed, "churn"))
        self.flows = {
            spec.flow_id: _FlowState(spec=spec, current_path=tuple(spec.path))
            for spec in trace.flows
        }
        self.failed_links: set = set()  # both directions of every dead link
        self._restore_counter = itertools.count(1)
        self._flow_of: dict = {}   # request_id -> _FlowState
        self._spans: dict = {}     # request_id -> live obs span
        self._in_flight = 0

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> ChurnMetrics:
        for event in self.trace.events:
            self.sim.schedule_at(event.time_ms, self._dispatch, event)
        with obs.span(
            "churn.run",
            trace=self.trace.name,
            seed=self.trace.seed,
            scheduled=self.policy.scheduled,
        ) as span:
            self.sim.run()
            span.set_attrs(
                arrivals=self.metrics.arrivals,
                rounds=self.metrics.rounds_issued,
                violations=self.metrics.transient_violations,
                quiescent=self.metrics.quiescent,
            )
        if not self.metrics.quiescent:  # pragma: no cover - defensive
            raise ChurnError("simulator drained but updates never settled")
        return self.metrics

    def _dispatch(self, event: ChurnEvent) -> None:
        if isinstance(event, UpdateArrival):
            self._on_arrival(event)
        elif isinstance(event, UpdateCancel):
            self._on_cancel(event)
        elif isinstance(event, LinkFailure):
            self._on_link_failure(event)
        else:  # pragma: no cover - closed trace vocabulary
            raise ChurnError(f"unknown churn event {event!r}")

    # ------------------------------------------------------------------
    # stimuli
    # ------------------------------------------------------------------
    def _on_arrival(self, arrival: UpdateArrival) -> None:
        flow = self.flows.get(arrival.flow_id)
        if flow is None:
            raise ChurnError(f"arrival for unknown flow {arrival.flow_id!r}")
        record = UpdateLifecycle(
            request_id=arrival.request_id,
            flow_id=arrival.flow_id,
            arrived_ms=self.sim.now,
            waypointed=arrival.waypointed,
        )
        self.metrics.open_lifecycle(record)
        self.metrics.arrivals += 1
        self._flow_of[arrival.request_id] = flow
        request = _Request(
            request_id=arrival.request_id,
            target_path=tuple(arrival.target_path),
            waypointed=arrival.waypointed,
            record=record,
        )
        self._admit(flow, request)

    def _admit(self, flow: _FlowState, request: _Request) -> None:
        if self.policy.preempt:
            # newest wins: anything still waiting is superseded outright
            for waiting in flow.pending:
                self._settle(waiting.record, "superseded")
            flow.pending = [request]
            active = flow.active
            if active is None:
                self._pump(flow)
            elif active.phase in (PLANNING, IDLE):
                # nothing irreversible in flight: hand over immediately
                self._retract(active)
                self._finish_active(active, "superseded")
            # EXECUTING: the round boundary hands over (flips are physical)
        else:
            flow.pending.append(request)
            self._pump(flow)

    def _on_cancel(self, cancel: UpdateCancel) -> None:
        record = self.metrics.lifecycles.get(cancel.request_id)
        if record is None or record.settled:
            self.metrics.cancels_noop += 1
            return
        flow = self._flow_of[cancel.request_id]
        active = flow.active
        if active is not None and active.request.request_id == cancel.request_id:
            if active.phase == EXECUTING:
                # flips are in flight: finish the round, then settle
                active.cancel_requested = True
            else:
                self._retract(active)
                self._finish_active(active, "cancelled")
        else:
            flow.pending = [
                waiting
                for waiting in flow.pending
                if waiting.request_id != cancel.request_id
            ]
            self._settle(record, "cancelled")

    def _on_link_failure(self, failure: LinkFailure) -> None:
        u, v = failure.link
        self.failed_links.add((u, v))
        self.failed_links.add((v, u))
        obs.event("churn.link_failure", link=repr(failure.link))
        # Victims, in deterministic flow order: in-flight updates whose
        # target crosses the dead link, then idle flows stranded on it.
        replan_victims: list = []
        restore_victims: list = []
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            active = flow.active
            if active is not None:
                if self._crosses_failed(active.target):
                    replan_victims.append(active)
            elif self._crosses_failed(flow.current_path):
                restore_victims.append(flow)
        budget = max(0, int(self.policy.replan_budget))
        deferred_rank = 0
        for active in replan_victims:
            active.needs_replan = True
            if active.phase == EXECUTING:
                continue  # the round boundary re-plans; no timer needed
            self._retract(active)
            if budget > 0:
                budget -= 1
                self._replan_or_abort(active, reason="link-failure")
            else:
                deferred_rank += 1
                active.deferred_event = self.sim.schedule(
                    self.policy.replan_defer_ms * deferred_rank,
                    self._deferred_replan,
                    active,
                )
        for flow in restore_victims:
            if budget > 0:
                budget -= 1
                self._start_restoration(flow)
            else:
                deferred_rank += 1
                flow.restore_event = self.sim.schedule(
                    self.policy.replan_defer_ms * deferred_rank,
                    self._deferred_restoration,
                    flow,
                )

    def _deferred_replan(self, active: _ActiveUpdate) -> None:
        active.deferred_event = None
        if active.record.settled or active.flow.active is not active:
            return  # settled or superseded while the timer ran
        if active.phase != IDLE or not active.needs_replan:
            return  # a round boundary already handled it
        self._replan_or_abort(active, reason="link-failure")

    def _deferred_restoration(self, flow: _FlowState) -> None:
        flow.restore_event = None
        if flow.active is None and self._crosses_failed(flow.current_path):
            self._start_restoration(flow)

    # ------------------------------------------------------------------
    # update lifecycle
    # ------------------------------------------------------------------
    def _pump(self, flow: _FlowState) -> None:
        if flow.active is None and flow.pending:
            self._start_update(flow, flow.pending.pop(0))

    def _start_update(self, flow: _FlowState, request: _Request) -> None:
        record = request.record
        if flow.restore_event is not None:
            # the fresh update routes around failures; restoration is moot
            flow.restore_event.cancel()
            flow.restore_event = None
        target = tuple(request.target_path)
        if self._crosses_failed(target):
            # the requested path died before we could plan it: re-route
            resampled = self._sample_target(flow, record.request_id)
            if resampled is None:
                self._settle(record, "aborted")
                self._pump(flow)
                return
            record.replans += 1
            self.metrics.replans += 1
            target = resampled
            request.target_path = target
        current = tuple(flow.current_path)
        if target == current:
            self._settle(record, "noop")
            self._pump(flow)
            return
        if record.started_ms is None:
            record.started_ms = self.sim.now
        if record.request_id not in self._spans:
            self._spans[record.request_id] = obs.span(
                "churn.update",
                request=record.request_id,
                flow=record.flow_id,
                waypointed=request.waypointed,
            )
        waypoint = (
            self._resolve_waypoint(current, target) if request.waypointed else None
        )
        problem = UpdateProblem(
            current, target, waypoint=waypoint, name=record.request_id
        )
        oracle = None
        if self.policy.scheduled:
            properties = [Property.BLACKHOLE, Property.RLF]
            if waypoint is not None:
                properties.append(Property.WPE)
            oracle = oracle_for(problem, tuple(properties))
            oracle.reset()
        remaining = set(problem.required_updates)
        if self.policy.include_cleanup:
            remaining |= problem.cleanup_updates
        active = _ActiveUpdate(
            request=request,
            flow=flow,
            problem=problem,
            oracle=oracle,
            target=target,
            remaining=remaining,
        )
        flow.active = active
        self._in_flight += 1
        self.metrics.peak_in_flight = max(self.metrics.peak_in_flight, self._in_flight)
        if not remaining:  # pragma: no cover - distinct paths always differ
            self._finish_active(active, "done")
            return
        self._plan_round(active)

    @staticmethod
    def _resolve_waypoint(current: tuple, target: tuple):
        """Deterministic common interior node of both paths (or None)."""
        common = set(current[1:-1]) & set(target[1:-1])
        if not common:
            return None
        return min(common, key=repr)

    def _plan_round(self, active: _ActiveUpdate) -> None:
        check_deadline()  # a timed churn cell stops between two rounds
        active.next_plan_event = None
        if active.cancel_requested:
            self._finish_active(active, "cancelled")
            return
        if self.policy.preempt and active.flow.pending:
            self._finish_active(active, "superseded")
            return
        if active.needs_replan:
            self._replan_or_abort(active, reason="link-failure")
            return
        oracle = active.oracle
        if oracle is None:
            # unscheduled baseline: everything in one staggered round
            round_nodes = sorted(active.remaining, key=repr)
        else:
            # The oracle holds the committed nodes, none in flight; verdicts
            # are monotone in the in-flight set.  So a required update unsafe
            # alone, or a cleanup the source reaches (BLACKHOLE), is refused.
            alone = oracle.nodes_of(
                oracle.safe_singletons(oracle.mask_of(active.committed))
            )
            cleanup = active.problem.cleanup_updates
            round_nodes = [
                node
                for node in sorted(active.remaining, key=repr)
                if (not oracle.reaches(node) if node in cleanup else node in alone)
                and oracle.try_apply(node)
            ]
            if not round_nodes:
                # greedily stuck: a different target may unstick it
                self._replan_or_abort(active, reason="stuck")
                return
        active.round_nodes = round_nodes
        active.phase = PLANNING
        active.issue_event = self.sim.schedule(
            self.policy.plan_latency_ms, self._issue_round, active
        )

    def _retract(self, active: _ActiveUpdate) -> None:
        """Undo everything retractable: planned rounds and pending timers."""
        if active.issue_event is not None:
            active.issue_event.cancel()
            active.issue_event = None
        if active.next_plan_event is not None:
            active.next_plan_event.cancel()
            active.next_plan_event = None
        if active.deferred_event is not None:
            active.deferred_event.cancel()
            active.deferred_event = None
        if active.phase == PLANNING and active.oracle is not None:
            for node in active.round_nodes:
                active.oracle.revert(node)
        active.round_nodes = []
        active.phase = IDLE

    def _issue_round(self, active: _ActiveUpdate) -> None:
        active.issue_event = None
        active.phase = EXECUTING
        record = active.record
        record.rounds.append(
            RoundTiming(index=len(record.rounds), started_ms=self.sim.now)
        )
        self.metrics.rounds_issued += 1
        active.flips_left = len(active.round_nodes)
        for rank, node in enumerate(active.round_nodes):
            self.sim.schedule(
                self.policy.flip_latency_ms + rank * self.policy.flip_stagger_ms,
                self._flip,
                active,
                node,
            )

    def _flip(self, active: _ActiveUpdate, node) -> None:
        active.committed.add(node)
        if active.last_walk is not None and node in active.last_walk.visited:
            active.last_walk = None  # a walk reads only the hops it visits
        active.record.flips += 1
        self.metrics.flips += 1
        self._probe(active)
        active.flips_left -= 1
        if active.flips_left == 0:
            self._complete_round(active)

    def _probe(self, active: _ActiveUpdate) -> None:
        """Audit the transient configuration with a dataplane-style walk."""
        walk = active.walk()
        if walk.delivered:
            waypoint = active.problem.waypoint
            if waypoint is not None and not walk.traversed(waypoint):
                fate = PacketFate.BYPASSED_WAYPOINT
            else:
                fate = PacketFate.DELIVERED
        elif walk.looped:
            fate = PacketFate.LOOPED
        else:
            fate = PacketFate.DROPPED
        crossed = self._crosses_failed(walk.visited)
        self.metrics.record_probe(active.record, fate, crossed)

    def _complete_round(self, active: _ActiveUpdate) -> None:
        record = active.record
        timing = record.rounds[-1]
        timing.finished_ms = self.sim.now
        if active.oracle is not None:
            active.oracle.commit_round()
        active.remaining -= set(active.round_nodes)
        active.round_nodes = []
        active.phase = IDLE
        if not active.remaining:
            self._finish_active(active, "done")
        elif active.cancel_requested:
            self._finish_active(active, "cancelled")
        else:
            active.next_plan_event = self.sim.schedule(
                self.policy.round_interval_ms, self._plan_round, active
            )

    def _replan_or_abort(self, active: _ActiveUpdate, reason: str) -> None:
        record = active.record
        flow = active.flow
        if record.replans >= self.policy.max_replans:
            self._finish_active(active, "aborted")
            return
        record.replans += 1
        self.metrics.replans += 1
        active.needs_replan = False
        obs.event(
            "churn.replan",
            request=record.request_id,
            reason=reason,
            attempt=record.replans,
        )
        # restart from the physically installed state: the walk under the
        # committed-only configuration is the flow's effective path now
        effective = self._effective_path(active)
        target = self._sample_target_from(effective, record.request_id)
        flow.current_path = effective
        flow.active = None
        self._in_flight -= 1
        if target is None:
            flow.active = active  # settle via the common path
            self._in_flight += 1
            self._finish_active(active, "aborted")
            return
        request = active.request
        request.target_path = target
        self._start_update(flow, request)

    def _finish_active(self, active: _ActiveUpdate, status: str) -> None:
        flow = active.flow
        flow.active = None
        self._in_flight -= 1
        if active.deferred_event is not None:
            active.deferred_event.cancel()
            active.deferred_event = None
        if status == "done":
            flow.current_path = active.target
        else:
            flow.current_path = self._effective_path(active)
        self._settle(active.record, status)
        self._pump(flow)
        if flow.active is None and self._crosses_failed(flow.current_path):
            # the update landed the flow on a dead link: repair it
            self._start_restoration(flow)

    def _settle(self, record: UpdateLifecycle, status: str) -> None:
        self.metrics.settle(record, status, self.sim.now)
        span = self._spans.pop(record.request_id, None)
        if span is not None:
            span.set_attrs(
                rounds=len(record.rounds),
                flips=record.flips,
                replans=record.replans,
                violations=record.violations,
                quiescence_ms=record.time_to_quiescence_ms,
            )
            span.end(status)

    # ------------------------------------------------------------------
    # restoration and re-routing helpers
    # ------------------------------------------------------------------
    def _start_restoration(self, flow: _FlowState) -> None:
        flow.restore_event = None
        request_id = f"{flow.spec.flow_id}-restore{next(self._restore_counter)}"
        record = UpdateLifecycle(
            request_id=request_id,
            flow_id=flow.spec.flow_id,
            arrived_ms=self.sim.now,
        )
        self.metrics.open_lifecycle(record)
        self.metrics.restorations += 1
        self._flow_of[request_id] = flow
        target = self._sample_target(flow, request_id)
        if target is None:
            self._settle(record, "aborted")
            return
        self._start_update(
            flow,
            _Request(
                request_id=request_id,
                target_path=target,
                waypointed=False,
                record=record,
            ),
        )

    def _sample_target(self, flow: _FlowState, request_id: str):
        return self._sample_target_from(tuple(flow.current_path), request_id)

    def _sample_target_from(self, current: tuple, request_id: str):
        rng = self.streams.stream(f"replan:{request_id}")
        return sample_simple_path(
            self.trace.topology,
            current[0],
            current[-1],
            rng,
            avoid_links=self.failed_links,
        )

    def _effective_path(self, active: _ActiveUpdate) -> tuple:
        """The walk under the committed-only configuration.

        Falls back to the last known delivered path (the problem's old
        path) when the partial state does not deliver -- only reachable
        in the unscheduled baseline, whose transient states may drop.
        """
        walk = active.walk()
        if walk.delivered:
            return walk.visited
        return tuple(active.problem.old_path.nodes)

    def _crosses_failed(self, path) -> bool:
        if not self.failed_links:
            return False
        return any((a, b) in self.failed_links for a, b in zip(path, path[1:]))


def run_churn(trace: ChurnTrace, policy: ChurnPolicy | None = None) -> ChurnMetrics:
    """Drive ``trace`` to quiescence and return the run's metrics."""
    return OnlineChurnController(trace, policy=policy).run()
