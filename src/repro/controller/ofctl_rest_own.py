"""Reimplementation of the paper's ``ofctl_rest_own.py`` app.

The demo extends Ryu's stock REST app with *multi-round* updates: a REST
message carries the old route, the new route, the waypoint and an optional
inter-round interval; the app computes the round schedule (WayUp in the
demo; Peacock and the baselines are selectable here), compiles it to
per-switch FlowMods and runs it through the barrier-fenced
:class:`~repro.controller.update_queue.UpdateQueueApp`.

REST message format, from the paper::

    {
      "oldpath": [<dp-num>, ...],
      "newpath": [<dp-num>, ...],
      "wp": <dp-num>,
      "interval": <time in ms>,
      <type>: [<OpenFlow message information>], ...
    }

The explicit per-type FlowMod bodies of the original are accepted too
(``"add"`` / ``"delete"`` lists of ofctl bodies override the compiler for
the listed switches); in the common case the app compiles the rules itself
from the topology, exactly like our scenario runner does.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import (
    BadRequestError,
    InfeasibleUpdateError,
    OpenFlowError,
    PathError,
    SchedulerSpecError,
    UpdateModelError,
    VerificationError,
)
from repro.controller.app import RyuLikeApp
from repro.controller.rules import (
    POLICY_PRIORITY,
    CompiledUpdate,
    compile_schedule,
    compile_two_phase,
)
from repro.controller.update_queue import UpdateQueueApp
from repro.core.api import execute_request, ScheduleRequest
from repro.core.problem import UpdateProblem
from repro.core.registry import REGISTRY, resolve_scheduler, scheduler_names
from repro.core.twophase import TwoPhaseSchedule
from repro.core.verify import default_properties
from repro.openflow.flowmod import FlowMod
from repro.openflow.match import Match
from repro.topology.graph import Topology


class TransientUpdateApp(RyuLikeApp):
    """The paper's round-based update app (``ofctl_rest_own``)."""

    name = "ofctl_rest_own"

    def __init__(
        self,
        topology: Topology,
        update_queue: UpdateQueueApp,
        default_match: Match | None = None,
        verify: bool = True,
    ) -> None:
        super().__init__()
        self.topology = topology
        self.update_queue = update_queue
        self.default_match = default_match if default_match is not None else Match()
        self.verify = verify
        self.submitted: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # REST entry point
    # ------------------------------------------------------------------
    def submit_update(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """POST /update/<algorithm> -- returns a summary dict."""
        problem = self._parse_problem(body)
        algorithm = str(body.get("algorithm", "wayup")).lower()
        interval_ms = float(body.get("interval", 0.0))
        match = self.default_match
        if "match" in body:
            try:
                match = Match.from_ofctl(body["match"])
            except OpenFlowError as exc:
                raise BadRequestError(f"bad match: {exc}") from None
        priority = int(body.get("priority", POLICY_PRIORITY))

        try:
            scheduler = resolve_scheduler(algorithm)
        except SchedulerSpecError as exc:
            # a known scheduler with a bad spec (missing ':<props>', bad
            # param) gets the registry's precise message; a truly unknown
            # name gets the listing
            base = algorithm.partition("?")[0].partition(":")[0]
            if base in REGISTRY:
                raise BadRequestError(str(exc)) from None
            raise BadRequestError(
                f"unknown algorithm {algorithm!r}; "
                f"pick one of {scheduler_names()}"
            ) from None
        try:
            # verification policy of the update app: a scheduler is held to
            # its own guarantee, guarantee-free baselines to the problem's
            # default transient-security expectations (that gap is the demo)
            result = execute_request(ScheduleRequest(
                problem=problem,
                scheduler=scheduler.name,
                verify=self.verify,
                properties=(
                    None if scheduler.guarantee
                    else default_properties(problem)
                ),
            ))
        except (UpdateModelError, InfeasibleUpdateError, VerificationError) as exc:
            raise BadRequestError(str(exc)) from exc
        schedule = result.schedule
        if isinstance(schedule, TwoPhaseSchedule):
            compiled = compile_two_phase(
                self.topology, schedule, match, priority=priority
            )
            summary = {
                "algorithm": result.scheduler,
                "rounds": len(compiled.rounds),
                "verified": "by-construction",
            }
        else:
            summary = {
                "algorithm": result.scheduler,
                "rounds": schedule.n_rounds,
                "round_names": schedule.metadata.get("round_names"),
                "schedule": schedule.to_dict(),
            }
            if result.report is not None:
                summary["verified"] = result.report.ok
                summary["verified_properties"] = [
                    p.value for p in result.report.properties
                ]
                if not result.report.ok:
                    summary["violations"] = [
                        str(v) for v in result.report.violations
                    ]
            compiled = compile_schedule(self.topology, schedule, match, priority=priority)

        self._apply_body_overrides(compiled, body)
        execution = self.update_queue.submit(
            compiled,
            interval_ms=interval_ms,
            metadata={"algorithm": algorithm, "problem": problem.to_dict()},
            use_barriers=bool(body.get("barriers", True)),
        )
        summary["update_id"] = execution.update_id
        summary["flow_mods"] = compiled.total_mods()
        self.submitted.append(summary)
        return summary

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _parse_problem(self, body: Mapping[str, Any]) -> UpdateProblem:
        """The body's update; both paths must run over this app's topology."""
        try:
            problem = UpdateProblem(
                [int(v) for v in body["oldpath"]],
                [int(v) for v in body["newpath"]],
                waypoint=int(body["wp"]) if "wp" in body and body["wp"] is not None else None,
            )
            problem.validate_in(self.topology)
        except (UpdateModelError, PathError, KeyError, ValueError) as exc:
            raise BadRequestError(f"bad update request: {exc}") from exc
        return problem

    def _apply_body_overrides(
        self, compiled: CompiledUpdate, body: Mapping[str, Any]
    ) -> None:
        """Honor explicit per-type FlowMod bodies from the original format.

        ``{"add": [<ofctl body with dpid>, ...], "delete": [...]}`` replaces
        the compiled FlowMods of the listed switches in the round where that
        switch is scheduled.
        """
        for command_key in ("add", "modify", "delete"):
            for entry in body.get(command_key, []) or []:
                if "dpid" not in entry:
                    raise BadRequestError(f"{command_key!r} override without 'dpid'")
                dpid = int(entry["dpid"])
                try:
                    mod = FlowMod.from_ofctl(entry, command=command_key.upper())
                except OpenFlowError as exc:
                    raise BadRequestError(
                        f"bad {command_key!r} override: {exc}"
                    ) from None
                for compiled_round in compiled.rounds:
                    if dpid in compiled_round.mods_by_dpid:
                        compiled_round.mods_by_dpid[dpid] = [mod]
                        break
                else:
                    raise BadRequestError(
                        f"override for dpid {dpid} which no round updates"
                    )

