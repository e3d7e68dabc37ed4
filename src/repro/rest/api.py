"""In-process REST router exposing the controller apps.

The demo drives its prototype through Ryu's WSGI REST interface; this
module reproduces the interface without sockets: a :class:`Router` matches
``(method, path)`` against registered patterns (``/stats/flow/<dpid>``) and
invokes handlers with path parameters and the JSON body.  The optional
localhost HTTP binding in :mod:`repro.rest.http_binding` serves the same
router over real HTTP for the interactive example.

Routes (mirroring ofctl_rest plus the paper's update endpoint):

* ``GET  /stats/switches``            -- connected dpids
* ``GET  /stats/flow/<dpid>``         -- flow stats of one switch
* ``POST /stats/flowentry/add``       -- one-shot FlowMod (baseline)
* ``POST /stats/flowentry/modify``    -- ditto
* ``POST /stats/flowentry/delete``    -- ditto
* ``POST /update``                    -- the paper's multi-round update;
  computing its schedule is bounded like ``POST /schedule`` (408)
* ``POST /update/<algorithm>``        -- ditto with the algorithm in the path
* ``GET  /update/<update_id>``        -- execution status / timings
* ``POST /schedule``                  -- scheduler service: compute + verify a
  schedule through the registry envelope, without executing it; bounded
  by :data:`REQUEST_DEADLINE_S` on the thread that serves it (408)
* ``GET  /schedulers``                -- registry capability listing
* ``POST /campaigns``                 -- run a declarative scenario campaign
* ``GET  /campaigns``                 -- known campaign ids
* ``GET  /campaigns/<campaign_id>``   -- campaign progress counters
* ``GET  /campaigns/<campaign_id>/report`` -- aggregated sweep table
* ``POST /campaigns/serve``           -- stand up a fabric coordinator
* ``GET  /campaigns/fabric``          -- actively-served campaign ids
* ``GET  /campaigns/<campaign_id>/fabric`` -- coordinator status + counters
* ``POST /campaigns/<campaign_id>/fabric/<verb>`` -- the fabric worker
  protocol (register / heartbeat / lease / submit / fail / deregister)
* ``GET  /campaigns/<campaign_id>/fabric/telemetry`` -- per-worker live
  telemetry (throughput, lease ages, retry/escalation tallies)
* ``GET  /metrics``                   -- Prometheus text exposition, read
  at scrape time from the objects that own each number: every served
  coordinator's counters (``repro_fabric_*{campaign}``) and worker
  tallies (``repro_fabric_worker_*{campaign,worker}``), the safety
  oracles' aggregate counters (``repro_oracle_*``) and the request
  histograms of ``execute_request`` (``repro_api_schedule_*``)

:func:`build_campaign_api` wires a campaign-only router onto a
:class:`RestApi` without network apps -- the surface ``repro campaign
serve`` exposes to its fleet.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    BadRequestError,
    InfeasibleUpdateError,
    NotFoundError,
    RestError,
    ScheduleTimeoutError,
    SchedulerSpecError,
    UnknownDatapathError,
    UpdateModelError,
    VerificationError,
)
from repro.controller.ofctl_rest import OfctlRestApp
from repro.controller.ofctl_rest_own import TransientUpdateApp
from repro.controller.update_queue import UpdateQueueApp
from repro.core.api import request_histograms, schedule_update, time_limit
from repro.core.oracle import aggregate_stats
from repro.core.problem import UpdateProblem
from repro.core.registry import REGISTRY, parse_properties
from repro.metrics import render_prometheus
from repro.rest.campaigns import CampaignService
from repro.rest.schemas import SCHEDULE
from repro.schema import datapath_id

#: Wall-clock seconds ``POST /schedule`` gives search plus verification
#: (408 past it).  The third request limit, next to
#: ``http_binding.MAX_BODY_BYTES`` and ``IDLE_TIMEOUT_S`` -- it lives here
#: because in-process callers of :meth:`RestApi.handle` are bound as well.
REQUEST_DEADLINE_S = 30.0


@dataclass
class RestResponse:
    """Status code plus body (JSON-compatible, or text with an explicit
    ``content_type`` -- the Prometheus exposition is plain text)."""

    status: int
    body: Any
    content_type: str | None = None

    def json(self) -> str:
        return json.dumps(self.body, sort_keys=True)


@dataclass
class Route:
    method: str
    pattern: re.Pattern
    handler: Callable[..., Any]


class Router:
    """Minimal method+path router with ``<param>`` captures."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def register(self, method: str, path: str, handler: Callable[..., Any]) -> None:
        """Register ``handler(body=None, **path_params)`` for method+path."""
        regex = re.escape(path)
        for name in re.findall(r"<(\w+)>", path):
            regex = regex.replace(re.escape(f"<{name}>"), f"(?P<{name}>[^/]+)")
        self._routes.append(
            Route(
                method=method.upper(),
                pattern=re.compile(f"^{regex}$"),
                handler=handler,
            )
        )

    def handle(self, method: str, path: str, body: Any = None) -> RestResponse:
        """Dispatch one request; REST errors become status codes."""
        method = method.upper()
        path_matched = False
        for route in self._routes:
            found = route.pattern.match(path)
            if found is None:
                continue
            path_matched = True
            if route.method != method:
                continue
            try:
                result = route.handler(body, **found.groupdict())
            except RestError as exc:
                return RestResponse(status=exc.status, body={"error": str(exc)})
            if isinstance(result, RestResponse):
                return result  # handler controls status / content type
            return RestResponse(status=200, body=result)
        if path_matched:
            return RestResponse(
                status=405, body={"error": f"method {method} not allowed on {path}"}
            )
        return RestResponse(status=404, body={"error": f"no route for {path}"})


@dataclass
class RestApi:
    """The wired-up application router; the network apps are ``None`` on
    the campaign-only surface (:func:`build_campaign_api`)."""

    router: Router
    ofctl: OfctlRestApp | None = None
    update_app: TransientUpdateApp | None = None
    update_queue: UpdateQueueApp | None = None
    flush: Callable[[], None] | None = None
    campaigns: CampaignService | None = None

    def handle(self, method: str, path: str, body: Any = None) -> RestResponse:
        return self.router.handle(method, path, body)


def build_rest_api(
    ofctl: OfctlRestApp,
    update_app: TransientUpdateApp,
    update_queue: UpdateQueueApp,
    flush: Callable[[], None] | None = None,
    campaign_root: str | None = None,
) -> RestApi:
    """Wire the standard route table onto the given apps.

    ``flush`` (usually ``network.flush``) is invoked by handlers that need
    switch replies (stats) or that should settle the update synchronously
    from the caller's point of view.  ``campaign_root`` is where campaign
    run directories are created (a temp directory by default).
    """
    router = Router()
    campaigns = CampaignService(root=campaign_root)
    api = RestApi(
        router=router,
        ofctl=ofctl,
        update_app=update_app,
        update_queue=update_queue,
        flush=flush,
        campaigns=campaigns,
    )

    def _flush() -> None:
        if flush is not None:
            flush()

    def get_switches(body: Any) -> list[int]:
        return ofctl.switches()

    def get_flow_stats(body: Any, dpid: str) -> dict:
        if not datapath_id(dpid):
            raise BadRequestError(f"bad dpid {dpid!r}")
        dpid_int = int(dpid)
        try:
            future = ofctl.flow_stats(dpid_int)
        except UnknownDatapathError as exc:
            raise NotFoundError(str(exc)) from None
        _flush()
        if not future.done:
            raise RestError("switch did not answer the stats request")
        return future.result().to_ofctl(dpid_int)

    def make_flowentry(operation: str) -> Callable[[Any], dict]:
        def handler(body: Any) -> dict:
            try:
                result = getattr(ofctl, f"flowentry_{operation}")(body)
            except UnknownDatapathError as exc:
                raise NotFoundError(str(exc)) from None
            _flush()
            return result

        return handler

    def post_update(
        body: Any, algorithm: str | None = None
    ) -> dict | RestResponse:
        try:
            with time_limit(REQUEST_DEADLINE_S):
                summary = update_app.submit_update(body, algorithm)
        except ScheduleTimeoutError as exc:
            # before anything was queued: the schedule is computed first
            return RestResponse(status=408, body={"error": str(exc)})
        _flush()
        return summary

    def post_schedule(body: Any) -> dict | RestResponse:
        """Scheduler-service endpoint: the envelope over the wire."""
        request = SCHEDULE.decode(body)
        try:
            problem = UpdateProblem.from_dict(request)
        except UpdateModelError as exc:
            raise BadRequestError(f"bad schedule request: {exc}") from None
        spec = request["scheduler"]
        try:
            result = schedule_update(
                problem,
                spec,
                include_cleanup=request["cleanup"],
                verify=request["verify"],
                properties=parse_properties("+".join(request["properties"]))
                if request["properties"] else None,
                params=request["params"],
                timeout_s=REQUEST_DEADLINE_S,
            )
        except ScheduleTimeoutError as exc:
            # 4xx, not 5xx: HttpClient re-sends on 5xx, and a body that
            # ran out of time once would be computed MAX_ATTEMPTS times
            return RestResponse(status=408, body={"error": str(exc)})
        except (SchedulerSpecError, UpdateModelError, VerificationError) as exc:
            # bad spec, model precondition, or an engine refusing the
            # request (size cap, WPE sans waypoint)
            raise BadRequestError(str(exc)) from None
        except (TypeError, ValueError) as exc:
            # client-supplied params of the wrong type reach the engines
            # as kwargs -- that is a 400; with no params in play the same
            # exceptions mean a library bug and must stay loud
            if not request["params"]:
                raise
            raise BadRequestError(f"bad engine params: {exc}") from None
        except InfeasibleUpdateError as exc:
            # a well-formed request whose instance admits no schedule is
            # an answer, not a client error; the spec resolved before the
            # scheduler ran, so the canonical name is available
            return {"status": "infeasible",
                    "scheduler": REGISTRY.resolve(spec).name,
                    "detail": str(exc)}
        data = result.to_dict()
        data["status"] = "ok"
        return data

    def get_schedulers(body: Any) -> list[dict]:
        return REGISTRY.describe()

    def get_update(body: Any, update_id: str) -> dict:
        for execution in update_queue.completed:
            if execution.update_id == update_id:
                return {
                    "update_id": execution.update_id,
                    "rounds": execution.n_rounds,
                    "duration_ms": execution.duration_ms,
                    "round_durations_ms": [
                        t.duration_ms for t in execution.round_timings
                    ],
                    "errors": len(execution.errors),
                    "state": "completed",
                }
        for execution in update_queue.queue:
            if execution.update_id == update_id:
                return {
                    "update_id": execution.update_id,
                    "current_round": execution.current_round,
                    "state": "running",
                }
        raise NotFoundError(f"unknown update {update_id!r}")

    router.register("GET", "/stats/switches", get_switches)
    router.register("GET", "/stats/flow/<dpid>", get_flow_stats)
    for operation in ("add", "modify", "modify_strict", "delete", "delete_strict"):
        router.register(
            "POST", f"/stats/flowentry/{operation}", make_flowentry(operation)
        )
    router.register("POST", "/update", post_update)
    router.register("POST", "/update/<algorithm>", post_update)
    router.register("GET", "/update/<update_id>", get_update)
    router.register("POST", "/schedule", post_schedule)
    router.register("GET", "/schedulers", get_schedulers)
    register_campaign_routes(router, campaigns)
    return api


def register_campaign_routes(router: Router, campaigns: CampaignService) -> None:
    """Wire the campaign + fabric route table onto ``router``.

    Shared between the full demo API (:func:`build_rest_api`) and the
    campaign-only coordinator surface (:func:`build_campaign_api`).
    """

    def route(method: str, path: str, call: Callable[..., Any]) -> None:
        # a service method names the path captures it takes, plus ``body``
        # where there is one to read
        if method == "GET":
            router.register(method, path, lambda body, **found: call(**found))
        else:
            router.register(
                method, path, lambda body, **found: call(body=body, **found)
            )

    route("POST", "/campaigns", campaigns.submit)
    # static segments must register before the <campaign_id> captures
    route("POST", "/campaigns/serve", campaigns.serve)
    route("GET", "/campaigns/fabric", campaigns.fabric_ids)
    route("GET", "/campaigns", campaigns.known_ids)
    route("GET", "/campaigns/<campaign_id>/fabric", campaigns.fabric_status)
    route("GET", "/campaigns/<campaign_id>/fabric/telemetry",
          campaigns.fabric_telemetry)
    route("POST", "/campaigns/<campaign_id>/fabric/<verb>",
          campaigns.fabric_call)
    route("GET", "/campaigns/<campaign_id>", campaigns.status)
    route("GET", "/campaigns/<campaign_id>/report", campaigns.report)
    register_metrics_route(router, campaigns)


def register_metrics_route(router: Router, campaigns: CampaignService) -> None:
    """Wire ``GET /metrics`` (Prometheus text exposition) onto ``router``.

    Nothing is pushed anywhere: a scrape reads each number from its
    owner -- the coordinators ``campaigns`` serves, the safety oracles'
    aggregate counters and :func:`~repro.core.api.execute_request`'s two
    histograms.
    """

    def get_metrics(body: Any) -> RestResponse:
        counters = {
            f"oracle.{key}": {(): value}
            for key, value in aggregate_stats().as_dict().items()
        }
        counters.update(campaigns.metric_families())
        text = render_prometheus(counters, request_histograms())
        return RestResponse(
            status=200,
            body=text,
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    router.register("GET", "/metrics", get_metrics)


def build_campaign_api(
    campaign_root: str | None = None,
    service: CampaignService | None = None,
) -> RestApi:
    """Wire only the campaign + fabric routes (``repro campaign serve``)."""
    router = Router()
    campaigns = service or CampaignService(root=campaign_root)
    register_campaign_routes(router, campaigns)
    return RestApi(router=router, campaigns=campaigns)
