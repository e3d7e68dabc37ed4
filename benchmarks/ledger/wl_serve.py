"""``serve_small`` and ``serve_large``: ``POST /schedule`` over loopback HTTP.

An op is one request to a :class:`~repro.rest.http_binding.RestHttpServer`
booted the way ``repro serve`` boots it (figure-1 network behind the full
route table), sent by one closed-loop client that keeps a connection open
for as long as the server lets it.  Traffic crosses the host's loopback
interface, never a real link.

``serve_small`` draws paper-demo-sized ``random-update`` instances, so
per-request cost (connection, JSON, validation, problem and oracle build)
dominates; ``serve_large`` posts ``reversal``/``sawtooth`` instances of
60..400 nodes, where the oracle's delta walks and verification are nearly
all of the latency and transport must not show.
"""

from __future__ import annotations

import http.client
import json
import random

from repro.core.api import schedule_update
from repro.core.hardness import reversal_instance, sawtooth_instance
from repro.core.oracle import SafetyOracle
from repro.core.problem import UpdateProblem
from repro.core.registry import resolve_scheduler
from repro.core.verify import verify_schedule
from repro.errors import InfeasibleUpdateError, ReproError
from repro.netlab.figure1 import build_figure1_scenario
from repro.rest.api import build_rest_api
from repro.rest.http_binding import RestHttpServer
from repro.rest.schemas import validate_schedule_body
from repro.topology.random_graphs import random_update_instance

from harness import Tracer, Workload, alternate, median, no_gc, paired_share

#: ``serve_small`` slots: every size under every scheduler, waypointed
#: where the scheduler needs one.
SMALL_SIZES = (6, 8, 10, 12, 14, 16)
SMALL_SCHEDULERS = (
    ("wayup", True),
    ("peacock", False),
    ("greedy-slf", False),
    ("combined:wpe+rlf", True),
    ("combined:slf+blackhole", False),
    ("combined:wpe+slf", True),
)
SMALL_PER_SLOT = 24

#: ``serve_large`` ladder: (family, scheduler, sizes).  greedy-slf is
#: quadratic on these families (reversal-220 ~0.3 s), peacock near-linear,
#: so one cycle spans 5 ms .. 300 ms requests in about two seconds.
LARGE_LADDER = (
    ("reversal", "greedy-slf", (60, 100, 140, 180, 220)),
    ("sawtooth", "greedy-slf", (100, 160, 220, 280, 340, 400)),
    ("reversal", "peacock", (60, 110, 160, 210, 260, 310, 360, 400)),
    ("sawtooth", "peacock", (60, 110, 160, 210, 260, 310, 360, 400)),
)


class _CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


class ScheduleClient:
    """One closed-loop HTTP client; reuses its connection when allowed."""

    HEADERS = {"Content-Type": "application/json", "Accept": "application/json"}

    def __init__(self, port: int) -> None:
        self.conn = _CountingConnection("127.0.0.1", port, timeout=60)
        self.requests = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def post(self, payload: bytes) -> tuple[int, bytes]:
        conn = self.conn
        conn.request("POST", "/schedule", body=payload, headers=self.HEADERS)
        reply = conn.getresponse()
        data = reply.read()
        if reply.will_close:
            conn.close()
        self.requests += 1
        self.bytes_out += len(payload)
        self.bytes_in += len(data)
        return reply.status, data

    def close(self) -> None:
        self.conn.close()


def _problem_of(body: dict) -> UpdateProblem:
    """A *fresh* problem per call: ``oracle_for`` caches on the object."""
    return UpdateProblem(
        list(body["oldpath"]), list(body["newpath"]), waypoint=body.get("wp")
    )


def reference(body: dict) -> dict | None:
    """Expected reply fields, computed in-process; None = not servable
    (the request would draw a 4xx, so the generator must not emit it)."""
    try:
        result = schedule_update(
            _problem_of(body), body["scheduler"], verify=False
        )
    except InfeasibleUpdateError:
        return {"status": "infeasible"}
    except ReproError:
        return None
    return {"status": "ok", "rounds": result.n_rounds}


class ServeWorkload(Workload):
    """Shared machinery; subclasses provide ``bodies(rng, scale)``."""

    def __init__(self, seed: int, scale: float, root) -> None:
        rng = random.Random(f"{self.name}-{seed}")
        self.bodies: list[dict] = []
        self.expected = []
        for body, want in self.generate(rng, scale):
            self.bodies.append(body)
            self.expected.append(want)
        self.ops = [
            json.dumps(body, sort_keys=True).encode("utf-8")
            for body in self.bodies
        ]
        scenario = build_figure1_scenario(algorithm="wayup", seed=seed)
        scenario.prepare()
        self.api = build_rest_api(
            scenario.ofctl_app,
            scenario.update_app,
            scenario.update_queue,
            flush=scenario.network.flush,
            campaign_root=str(root),
        )
        self.server = RestHttpServer(self.api, port=0)
        self.server.start()
        self.client = ScheduleClient(self.server.port)

    def generate(self, rng: random.Random, scale: float):
        raise NotImplementedError

    def run_op(self, payload: bytes):
        return self.client.post(payload)

    def outcome(self, payload: bytes, raw) -> dict:
        status, data = raw
        reply = json.loads(data)
        state = reply.get("status") if isinstance(reply, dict) else None
        result = {
            "http": status,
            "status": state,
            "ok": status == 200
            and (state == "infeasible" or (state == "ok" and reply["verified"] is True)),
        }
        if state == "ok":
            result["rounds"] = reply["rounds"]
            result["touches"] = reply["touches"]
            result["schedule"] = reply["schedule"]
        return result

    def close(self) -> None:
        self.client.close()
        self.server.stop()

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        client = ScheduleClient(self.server.port)
        calls: list[dict] = []  # per sampled op: the spans round each call
        counters: dict[str, int] = {}
        for index in self.sampled_rounds(tracer, budget_s):
            body, payload = self.bodies[index], self.ops[index]
            call: dict = {}

            def untraced():
                with tracer.plain() as call["untraced"]:
                    raw = client.post(payload)
                self.check(index, raw)

            def traced():
                with tracer.span("rest.http_binding") as call["http"]:
                    client.post(payload)

            with tracer.span("op", op=f"{self.name}#{index}"):
                alternate(len(calls), untraced, traced)
                with no_gc(), tracer.span("rest.api.handle") as call["handle"]:
                    reply = self.api.handle("POST", "/schedule", body)
                for key, value in (reply.body.get("oracle") or {}).items():
                    counters[key] = counters.get(key, 0) + value
                call["parts"] = self._reenact(tracer, body)
            calls.append(call)
        # seconds are read now that a probe stands on either side of each
        rows = [
            {
                "untraced": call["untraced"].seconds,
                "http": call["http"].seconds,
                "handle": call["handle"].seconds,
                "parts": sum(span.seconds for span in call["parts"]),
            }
            for call in calls
        ]
        n = len(rows)
        requests = client.requests
        client.close()

        def per_op(key: str) -> float:
            return counters.get(key, 0) / n

        applies = counters.get("applies", 0)
        lookups = counters.get("memo_hits", 0) + counters.get("memo_misses", 0)
        return {
            "rest.http_binding.transport_us": median(
                row["http"] - row["handle"] for row in rows) * 1e6,
            "rest.http_binding.conns_per_req": client.conn.connects / requests,
            "rest.http_binding.bytes_out_per_req": client.bytes_out / requests,
            "rest.http_binding.bytes_in_per_req": client.bytes_in / requests,
            "rest.api.handle_us": median(row["handle"] for row in rows) * 1e6,
            "rest.api.self_us": median(
                row["handle"] - row["parts"] for row in rows) * 1e6,
            "rest.schemas.validate_us": tracer.p50("rest.schemas.validate", 1e6),
            "core.problem.build_us": tracer.p50("core.problem.build", 1e6),
            "core.registry.resolve_us": tracer.p50("core.registry.resolve", 1e6),
            "core.oracle.build_us": tracer.p50("core.oracle.build", 1e6),
            "core.api.search_us": tracer.p50("core.api.search", 1e6),
            "core.verify.verify_us": tracer.p50("core.verify.verify", 1e6),
            "core.schedule.serialize_us": tracer.p50("core.schedule.serialize", 1e6),
            "core.oracle.applies_per_op": per_op("applies"),
            "core.oracle.reverts_per_op": per_op("reverts"),
            "core.oracle.commits_per_op": per_op("commits"),
            "core.oracle.pk_reorders_per_op": per_op("pk_reorders"),
            "core.oracle.frontier_recomputes_per_op": per_op("frontier_recomputes"),
            "core.oracle.apply_keep_ratio": (
                (applies - counters.get("reverts", 0)) / applies if applies else 0.0
            ),
            "core.oracle.memo_hit_ratio": (
                counters.get("memo_hits", 0) / lookups if lookups else 0.0
            ),
            "core.oracle.memo_misses_per_op": per_op("memo_misses"),
            "core.oracle.memo_evictions_per_op": per_op("memo_evictions"),
            "core.oracle.nogood_hits_per_op": per_op("nogood_hits"),
            "core.oracle.nogoods_learned_per_op": per_op("nogoods_learned"),
            "trace.coverage": median(
                (row["http"] - row["handle"] + row["parts"]) / row["untraced"]
                for row in rows
            ),
            "trace.overhead_share": paired_share(
                (call["untraced"], call["http"]) for call in calls),
            "trace.sampled_ops": self.sample_size(),
        }

    @staticmethod
    def _reenact(tracer: Tracer, body: dict) -> list:
        """Call each layer under ``RestApi.handle`` directly, in the order
        the handler does; returns the spans of the leaf layers (oracle
        build and spec resolution happen inside the search)."""
        spec = body["scheduler"]
        spans = [tracer.span("rest.schemas.validate")]
        with spans[-1]:
            validate_schedule_body(body)
        spans.append(tracer.span("core.problem.build"))
        with spans[-1]:
            problem = _problem_of(body)
        with tracer.span("core.registry.resolve"):
            scheduler = resolve_scheduler(spec)
        fresh = _problem_of(body)
        with tracer.span("core.oracle.build"):
            SafetyOracle(fresh, scheduler.guarantee)
        spans.append(tracer.span("core.api.search"))
        try:
            with spans[-1]:
                result = schedule_update(problem, spec, verify=False)
        except InfeasibleUpdateError:
            return spans
        spans.append(tracer.span("core.verify.verify"))
        with spans[-1]:
            verify_schedule(result.schedule, properties=result.guarantee)
        spans.append(tracer.span("core.schedule.serialize"))
        with spans[-1]:
            json.dumps(result.to_dict(), sort_keys=True)
        return spans


class ServeSmall(ServeWorkload):
    name = "serve_small"
    # a server's collector makes a full pass every few hundred requests;
    # 256 keeps that sawtooth (and the live-oracle scan it feeds) in p50
    collect_every = 256

    def generate(self, rng: random.Random, scale: float):
        per_slot = max(1, round(SMALL_PER_SLOT * scale))
        drawn = []
        for size in SMALL_SIZES:
            for scheduler, waypointed in SMALL_SCHEDULERS:
                kept = 0
                while kept < per_slot:
                    old, new, waypoint = random_update_instance(
                        size, seed=rng.getrandbits(32), with_waypoint=waypointed
                    )
                    body = {
                        "oldpath": list(old.nodes),
                        "newpath": list(new.nodes),
                        "scheduler": scheduler,
                        "verify": True,
                    }
                    if waypoint is not None:
                        body["wp"] = waypoint
                    want = reference(body)
                    if want is not None:
                        drawn.append((body, want))
                        kept += 1
        rng.shuffle(drawn)
        return drawn


class ServeLarge(ServeWorkload):
    name = "serve_large"

    def generate(self, rng: random.Random, scale: float):
        drawn = []
        for family, scheduler, sizes in LARGE_LADDER:
            for size in sizes[: max(1, round(len(sizes) * scale))]:
                # the seed moves sizes by a node or two and shifts the ids;
                # the cost-determining size mix stays what the ladder says
                size += rng.randint(-2, 2)
                problem = (
                    reversal_instance(size)
                    if family == "reversal"
                    else sawtooth_instance(size, block=max(2, size // 4))
                )
                shift = rng.randrange(1000)
                body = {
                    "oldpath": [node + shift for node in problem.old_path.nodes],
                    "newpath": [node + shift for node in problem.new_path.nodes],
                    "scheduler": scheduler,
                    "verify": True,
                }
                drawn.append((body, reference(body)))
        rng.shuffle(drawn)
        return drawn

    def warm_up(self) -> None:
        for op in sorted(self.ops, key=len)[:2]:
            self.run_op(op)
