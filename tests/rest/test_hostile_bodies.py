"""The generated hostile-body gate: every POST route, fed bodies derived
from its own schema table, answers 2xx or 4xx -- never a 5xx, and never
an exception out of ``RestApi.handle``.

Each route starts from a valid body that names only what its table
requires.  A generated body then adds some of the optional keys the table
names (with valid values) and spoils it: a row's value swapped for one of
another type (bool, NaN, +-Infinity, huge ints, strings, lists, nested
objects), a required key dropped, a key no row names added, an int row
given an int its own shape refuses, a datapath id the network does not
have, or the whole body replaced by something that is not an object.
Every error reply must be ``{"error": str}``.  Over HTTP, one hostile
body per route must leave the kept-alive socket answering a valid request.

Tier-1 runs a small derandomized budget; ``--hypothesis-profile=nightly``
runs the big one.
"""

from __future__ import annotations

import http.client
import json
import math
from typing import Any, NamedTuple

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from repro.campaign.fabric.transport import VERBS
from repro.campaign.spec import SPEC, CampaignSpec
from repro.controller.ofctl_rest import OfctlRestApp
from repro.controller.ofctl_rest_own import UPDATE, TransientUpdateApp
from repro.controller.update_queue import UpdateQueueApp
from repro.core.problem import PATH
from repro.netlab.figure1 import figure1_problem
from repro.netlab.network import Network
from repro.openflow.flowmod import FLOWENTRY
from repro.openflow.match import Match
from repro.rest import schemas
from repro.rest.api import build_rest_api
from repro.rest.campaigns import SERVE, SUBMIT
from repro.rest.http_binding import RestHttpServer
from repro.schema import _REQUIRED, WHOLE, Schema, datapath_id
from repro.topology.builders import figure1
from tests.core.generated import budget


class Route(NamedTuple):
    """A POST path, the table its body is read by, a valid body holding
    only what the table requires, and a valid value for every row."""

    path: str
    schema: Schema
    minimal: Any
    full: dict


JUNK = [
    True, False, None, math.nan, math.inf, -math.inf,
    2**31, 2**64, 2**70, -(2**70), -1, 0, 65536,
    "", "x", "42", "1e999", "²",
    [], [1], [None], ["x"], [[1]], {}, {"a": {"b": [1.5]}},
    [{"type": "OUTPUT", "port": []}], {"in_port": "x"},
]
JUNK_VALUES = st.one_of(
    st.sampled_from(JUNK),
    st.text(max_size=6),
    st.lists(st.sampled_from(JUNK[:8]), max_size=3),
    st.dictionaries(st.text(max_size=3), st.sampled_from(JUNK[:8]), max_size=2),
)
#: Ints to try on a row; the ones its shape refuses are out of its range.
INTS = [-(2**70), -1, 0, 1, 64, 65, 255, 256, 65535, 65536, 2**32, 2**64, 2**70]
#: Datapath ids the figure-1 network does not have.
ABSENT_DPIDS = [0, 13, 99999, "4242", 2**63]
NOT_OBJECTS = [None, [], "x", 7, [{"dpid": 5}]]

FLOW = {"dpid": 5, "priority": 11, "match": {"in_port": 1},
        "actions": [{"type": "OUTPUT", "port": 2}]}
FLOW_FULL = {**FLOW, "command": "ADD", "cookie": 1, "table_id": 0,
             "idle_timeout": 0, "hard_timeout": 0, "flags": 0,
             "instructions": [{"type": "APPLY_ACTIONS",
                               "actions": [{"type": "OUTPUT", "port": 2}]}]}
TINY = {"name": "hostile", "families": [{"family": "reversal", "sizes": [4]}],
        "schedulers": ["oneshot"]}
TINY_FULL = {**TINY, "seed": 3, "properties": ["blackhole"], "verify": True,
             "cleanup": True, "timeout_s": 30, "mem_limit_mb": 4096,
             "cpu_limit_s": 60, "version": 1}
SERVED = {"name": "hostile-fleet",
          "families": [{"family": "reversal", "sizes": [4, 5]}],
          "schedulers": ["oneshot"]}
KNOBS = {"lease_ttl_s": 5.0, "heartbeat_interval_s": 1.0,
         "heartbeat_timeout_s": 3.0, "lease_cells": 2,
         "max_transient_retries": 3, "escalation_factor": 4.0,
         "journal_compact_every": 64, "audit_fraction": 0.5, "audit_seed": 1,
         "poison_kill_threshold": 3}


def _routes(campaign_id: str, worker_id: str) -> dict[str, Route]:
    problem = figure1_problem()
    update = {"oldpath": list(problem.old_path.nodes),
              "newpath": list(problem.new_path.nodes), "wp": problem.waypoint}
    override = {"dpid": 3, "priority": 123, "match": {"eth_type": 0x0800},
                "actions": [{"type": "OUTPUT", "port": 1}]}
    update_full = {**update, "interval": 0, "algorithm": "wayup",
                   "match": {"eth_type": 0x0800, "ipv4_dst": "10.0.0.2"},
                   "priority": 7, "barriers": True, "add": [override],
                   "modify": None, "delete": None}
    schedule = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5]}
    schedule_full = {**schedule, "wp": 3, "scheduler": "peacock",
                     "properties": ["rlf"], "cleanup": True, "verify": True,
                     "params": {"exact": False}}
    routes = {
        f"flowentry/{operation}": Route(
            f"/stats/flowentry/{operation}", FLOWENTRY, FLOW, FLOW_FULL)
        for operation in ("add", "modify", "modify_strict", "delete",
                          "delete_strict")
    }
    routes["update"] = Route("/update", UPDATE, update, update_full)
    routes["update/wayup"] = Route("/update/wayup", UPDATE, update,
                                   update_full)
    routes["schedule"] = Route("/schedule", schemas.SCHEDULE, schedule,
                               schedule_full)
    routes["campaigns"] = Route("/campaigns", SPEC, TINY, TINY_FULL)
    routes["campaigns/wrapped"] = Route("/campaigns", SUBMIT, {"spec": TINY},
                                        {"spec": TINY, "workers": 1})
    routes["campaigns/serve"] = Route("/campaigns/serve", SERVE,
                                      {"spec": SERVED}, {"spec": SERVED, **KNOBS})
    held = {"worker_id": worker_id, "lease_id": "l-none", "cell_id": "c-none"}
    verbs = {
        "register": ({"name": "gate"}, {"name": "gate"}),
        "heartbeat": ({"worker_id": worker_id}, {}),
        "lease": ({"worker_id": worker_id}, {"max_cells": 1}),
        "submit": ({**held, "record": {}, "timing": {}, "integrity": {}}, {}),
        "fail": (held, {"detail": "gate"}),
        "deregister": ({"worker_id": worker_id}, {}),
    }
    for verb, (minimal, extra) in verbs.items():
        routes[f"fabric/{verb}"] = Route(
            f"/campaigns/{campaign_id}/fabric/{verb}", VERBS[verb], minimal,
            {**minimal, **extra})
    return routes


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    """The full demo API over the figure-1 network, one campaign served
    and one worker registered with it."""
    network = Network(figure1(with_hosts=True), seed=0)
    queue, ofctl = UpdateQueueApp(), OfctlRestApp()
    update_app = TransientUpdateApp(
        network.topo, queue,
        default_match=Match(eth_type=0x0800, ipv4_dst="10.0.0.2"))
    for app in (queue, ofctl, update_app):
        network.controller.register_app(app)
    network.start()
    api = build_rest_api(ofctl, update_app, queue, flush=network.flush,
                         campaign_root=str(tmp_path_factory.mktemp("hostile")))
    served = CampaignSpec.from_dict(SERVED).campaign_id
    assert api.handle("POST", "/campaigns/serve", {"spec": SERVED}).status == 200
    worker_id = api.campaigns.fabric(served).register({"name": "w"})["worker_id"]
    yield api, _routes(served, worker_id)
    api.campaigns.close()


class Defect(NamedTuple):
    """One defect, drawn without knowing the route: ``row`` and ``pick``
    are taken modulo the rows, ints, ids or path spots the route offers;
    ``junk`` is a swap's value, ``key`` an unknown key's name."""

    kind: str
    row: int
    pick: int
    junk: Any
    key: str


#: Indices of the optional keys a body adds (modulo how many its route has).
EXTRAS = st.lists(st.integers(0, 31), unique=True)
DEFECTS = st.lists(
    st.builds(Defect,
              st.sampled_from(["swap", "drop", "unknown", "range", "dpid",
                               "whole"]),
              st.integers(0, 31), st.integers(0, 1023), JUNK_VALUES,
              st.text(min_size=1, max_size=8)),
    min_size=1, max_size=2)


def hostile_body(route: Route, extras: list[int], defects: list[Defect]) -> Any:
    """A valid body with some optional keys added, then the defects."""
    fields = [field for field in route.schema if field.wire != WHOLE]
    if not fields:  # the whole body is the value: ``register``
        first = defects[0]
        if first.kind == "whole":
            return NOT_OBJECTS[first.pick % len(NOT_OBJECTS)]
        return {first.key: first.junk} if first.kind == "unknown" else first.junk
    body = dict(route.minimal)
    optional = [field.wire for field in fields
                if field.default is not _REQUIRED and field.wire in route.full]
    for index in extras if optional else ():
        key = optional[index % len(optional)]
        body[key] = route.full[key]
    keys = [field.wire for field in fields]
    for defect in defects:
        field = fields[defect.row % len(fields)]
        ints = [value for value in INTS if not field.shape(value)]
        if defect.kind == "whole":
            return NOT_OBJECTS[defect.pick % len(NOT_OBJECTS)]
        if defect.kind == "drop" and field.default is _REQUIRED:
            body.pop(field.wire, None)
        elif defect.kind == "unknown":
            key = defect.key if defect.key not in keys else defect.key + "~"
            body[key] = defect.junk
        elif defect.kind == "range" and 0 < len(ints) < len(INTS):  # a ranged int row
            body[field.wire] = ints[defect.pick % len(ints)]
        elif defect.kind == "dpid" and field.shape is datapath_id:
            body[field.wire] = ABSENT_DPIDS[defect.pick % len(ABSENT_DPIDS)]
        elif defect.kind == "dpid" and field.shape is PATH:
            # an earlier defect may have left junk here: spoil a path
            current = body.get(field.wire)
            path = list(current if isinstance(current, list) and current
                        else route.full[field.wire])
            spot, which = divmod(defect.pick, len(ABSENT_DPIDS))
            path[spot % len(path)] = ABSENT_DPIDS[which]
            body[field.wire] = path
        else:
            body[field.wire] = defect.junk
    return body


def _answered(status: int, body: Any) -> None:
    assert 200 <= status < 300 or 400 <= status < 500, (status, body)
    if status >= 400:
        assert isinstance(body, dict) and set(body) == {"error"}, body
        assert isinstance(body["error"], str), body


ROUTES = sorted(_routes("<campaign_id>", "<worker_id>"))


def test_every_post_route_is_in_the_gate(gate):
    api, routes = gate
    posts = [route.pattern for route in api.router._routes if route.method == "POST"]
    for pattern in posts:
        assert any(pattern.match(route.path) for route in routes.values()), pattern
    assert sorted(routes) == ROUTES


#: The row ``oldpath`` of ``/update``'s table.
OLDPATH = [field.wire for field in UPDATE if field.wire != WHOLE].index("oldpath")


@pytest.mark.parametrize("name", ROUTES)
@budget(25)
@given(extras=EXTRAS, defects=DEFECTS)
# a junk path, then an unknown switch in that path
@example(extras=[], defects=[Defect("swap", OLDPATH, 0, True, "x"),
                             Defect("dpid", OLDPATH, 0, None, "x")])
def test_a_hostile_body_is_answered_never_a_5xx(gate, name, extras, defects):
    api, routes = gate
    route = routes[name]
    body = hostile_body(route, extras, defects)
    response = api.handle("POST", route.path, body)
    event(f"status {response.status}")  # --hypothesis-show-statistics
    _answered(response.status, response.body)


@pytest.mark.parametrize("name", ROUTES)
def test_the_socket_answers_a_valid_request_after_a_hostile_one(gate, name):
    api, routes = gate
    route = routes[name]
    server = RestHttpServer(api, port=0)
    server.start()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)

    def post(body):
        connection.request("POST", route.path, body=json.dumps(body).encode(),
                           headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        return reply, json.loads(reply.read())

    try:
        first = route.schema.fields[0]
        hostile = [{"x": None}] if first.wire == WHOLE else {
            **route.minimal, first.wire: [{"x": math.nan}]}
        reply, body = post(hostile)
        _answered(reply.status, body)
        assert reply.status >= 400 and not reply.will_close
        sock = connection.sock
        reply, body = post(route.minimal)
        _answered(reply.status, body)
        assert connection.sock is sock
    finally:
        connection.close()
        server.stop()
