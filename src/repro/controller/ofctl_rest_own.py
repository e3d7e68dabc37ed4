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
(``"add"`` / ``"modify"`` / ``"delete"`` lists of ofctl flow-entry bodies
override the compiler for the listed switches); in the common case the
app compiles the rules itself from the topology, exactly like our
scenario runner does.

The body has one reader, the :data:`UPDATE` table, whose defaults are
what the app does with a key left out; each override entry is read by
:func:`~repro.openflow.flowmod.flow_entry`.  :meth:`TransientUpdateApp.submit_update`
decodes the whole body before it schedules anything, for the REST route
and for in-process callers (:class:`~repro.netlab.scenario.UpdateScenario`)
alike.
"""

from __future__ import annotations

from types import MappingProxyType
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
from repro.core.problem import PROBLEM_FIELDS, UpdateProblem
from repro.core.registry import REGISTRY, resolve_scheduler, scheduler_names
from repro.core.twophase import TwoPhaseSchedule
from repro.core.verify import default_properties
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowmod import FlowMod, flow_entry
from repro.openflow.match import Match
from repro.schema import (Field, Schema, boolean, integer, is_object, list_of,
                          number, string)
from repro.topology.graph import Topology

_OVERRIDES = ("add", "modify", "delete")
#: ``match`` left out: the app's own ``default_match`` (an explicit ``{}``
#: matches every packet).
_APP_MATCH: Mapping[str, Any] = MappingProxyType({})

#: The update request (``POST /update[/<algorithm>]``): the paper's header,
#: this implementation's extensions and the override lists; unknown keys
#: pass.
UPDATE = Schema("update request", (
    *PROBLEM_FIELDS,
    Field("interval", number(0), "non-negative milliseconds (a finite number)", 0),
    Field("algorithm", string, "a scheduler spec string", "wayup"),
    Field("match", is_object, "an object", _APP_MATCH),
    Field("priority", integer(0, 0xFFFF), "an int in 0..65535", POLICY_PRIORITY),
    Field("barriers", boolean, "true or false", True),
    *(Field(key, list_of(is_object), "a list of flow-entry bodies", None)
      for key in _OVERRIDES),
), BadRequestError, closed=False)


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
    def submit_update(
        self, body: Any, algorithm: str | None = None
    ) -> dict[str, Any]:
        """POST /update[/<algorithm>] -- returns a summary dict; the path's
        ``algorithm`` wins over the body's."""
        request = UPDATE.decode(body)
        overrides = self._read_overrides(request)
        problem = self._parse_problem(request)
        algorithm = (algorithm or request["algorithm"]).lower()
        match = self.default_match
        if request["match"] is not _APP_MATCH:
            try:
                match = Match.from_ofctl(request["match"])
            except OpenFlowError as exc:
                raise BadRequestError(f"bad match: {exc}") from None
        priority = request["priority"]

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

        self._apply_body_overrides(compiled, overrides)
        execution = self.update_queue.submit(
            compiled,
            interval_ms=float(request["interval"]),
            metadata={"algorithm": algorithm, "problem": problem.to_dict()},
            use_barriers=request["barriers"],
        )
        summary["update_id"] = execution.update_id
        summary["flow_mods"] = compiled.total_mods()
        self.submitted.append(summary)
        return summary

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _read_overrides(
        self, request: Mapping[str, Any]
    ) -> list[tuple[int, FlowMod]]:
        """The explicit per-type FlowMod bodies of the original format, in
        ``add`` / ``modify`` / ``delete`` order."""
        overrides = []
        for key in _OVERRIDES:
            for entry in request[key] or ():
                try:
                    overrides.append(flow_entry(entry, FlowModCommand[key.upper()]))
                except (BadRequestError, OpenFlowError) as exc:
                    raise BadRequestError(f"bad {key!r} override: {exc}") from None
        return overrides

    def _parse_problem(self, request: Mapping[str, Any]) -> UpdateProblem:
        """The request's update; both paths must run over this app's topology."""
        try:
            problem = UpdateProblem.from_dict(request)
            problem.validate_in(self.topology)
        except (UpdateModelError, PathError) as exc:
            raise BadRequestError(f"bad update request: {exc}") from exc
        return problem

    def _apply_body_overrides(
        self, compiled: CompiledUpdate, overrides: list[tuple[int, FlowMod]]
    ) -> None:
        """Each override replaces the compiled FlowMods of its switch in the
        round where that switch is scheduled."""
        for dpid, mod in overrides:
            for compiled_round in compiled.rounds:
                if dpid in compiled_round.mods_by_dpid:
                    compiled_round.mods_by_dpid[dpid] = [mod]
                    break
            else:
                raise BadRequestError(
                    f"override for dpid {dpid} which no round updates"
                )
