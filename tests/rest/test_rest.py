"""Tests for the REST router, schemas, and the wired API."""

import pytest

from repro.controller.ofctl_rest import OfctlRestApp
from repro.controller.ofctl_rest_own import TransientUpdateApp
from repro.controller.update_queue import UpdateQueueApp
from repro.errors import BadRequestError
from repro.netlab.figure1 import figure1_problem
from repro.netlab.network import Network
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowmod import flow_entry
from repro.openflow.match import Match
from repro.rest.api import Router, build_rest_api
from repro.topology.builders import figure1


class TestRouter:
    def test_static_route(self):
        router = Router()
        router.register("GET", "/ping", lambda body: {"pong": True})
        response = router.handle("GET", "/ping")
        assert response.status == 200 and response.body == {"pong": True}

    def test_params_extracted(self):
        router = Router()
        router.register("GET", "/stats/flow/<dpid>", lambda body, dpid: {"dpid": dpid})
        response = router.handle("GET", "/stats/flow/7")
        assert response.body == {"dpid": "7"}

    def test_404(self):
        assert Router().handle("GET", "/nope").status == 404

    def test_405(self):
        router = Router()
        router.register("GET", "/x", lambda body: {})
        assert router.handle("POST", "/x").status == 405

    def test_rest_error_mapped_to_status(self):
        router = Router()

        def handler(body):
            raise BadRequestError("nope")

        router.register("POST", "/x", handler)
        response = router.handle("POST", "/x", {})
        assert response.status == 400
        assert "nope" in response.body["error"]

    def test_json_rendering(self):
        router = Router()
        router.register("GET", "/x", lambda body: {"a": 1})
        assert router.handle("GET", "/x").json() == '{"a": 1}'


class TestSchemas:
    """Each body's one reader: the update app decodes the whole request,
    ``flow_entry`` an ofctl flow entry."""

    def _base(self):
        problem = figure1_problem()
        return {
            "oldpath": list(problem.old_path.nodes),
            "newpath": list(problem.new_path.nodes),
            "wp": problem.waypoint,
            "interval": 0,
        }

    def test_valid_update(self, api):
        _, rest = api
        rest.update_app.submit_update(self._base())

    def test_string_dpids_accepted(self, api):
        _, rest = api
        body = self._base()
        body["oldpath"] = [str(v) for v in body["oldpath"]]
        body["wp"] = str(body["wp"])
        rest.update_app.submit_update(body)

    @pytest.mark.parametrize("mutate,error", [
        (lambda b: b.pop("oldpath"), "oldpath"),
        (lambda b: b.update(newpath=[1]), "at least two"),
        (lambda b: b.update(oldpath=[1, 2, 2, 3]), "simple"),
        (lambda b: b.update(oldpath=[1, "x", 3]), "non-numeric"),
        (lambda b: b.update(oldpath=[1, "\u00b2", 3]), "non-numeric"),
        (lambda b: b.update(interval=-5), "non-negative"),
        (lambda b: b.update(interval="soon"), "milliseconds"),
        (lambda b: b.update(wp="firewall"), "numeric"),
        (lambda b: b.update(add=[{"match": {}}]), "dpid"),
        (lambda b: b.update(add={"dpid": 1}), "list"),
    ])
    def test_invalid_updates(self, api, mutate, error):
        _, rest = api
        body = self._base()
        mutate(body)
        with pytest.raises(BadRequestError, match=error):
            rest.update_app.submit_update(body)

    def test_not_a_dict(self, api):
        _, rest = api
        with pytest.raises(BadRequestError):
            rest.update_app.submit_update([1, 2])

    def test_flowentry_valid(self):
        flow_entry({"dpid": 1, "match": {"in_port": 1}}, FlowModCommand.ADD)

    @pytest.mark.parametrize("body", [
        {},
        {"dpid": True},
        {"dpid": "fw1"},
        {"dpid": 1, "match": "all"},
        {"dpid": 1, "priority": -1},
        {"dpid": 1, "priority": "high"},
    ])
    def test_flowentry_invalid(self, body):
        with pytest.raises(BadRequestError):
            flow_entry(body, FlowModCommand.ADD)


def figure1_body() -> dict:
    """The paper's update request for the figure-1 reroute."""
    problem = figure1_problem()
    return {
        "oldpath": list(problem.old_path.nodes),
        "newpath": list(problem.new_path.nodes),
        "wp": problem.waypoint,
        "interval": 0,
    }


def to_switch_sent(network) -> int:
    return sum(s.to_switch_sent for s in network.channel_stats().values())


@pytest.fixture
def api(tmp_path):
    network = Network(figure1(with_hosts=True), seed=0)
    queue = UpdateQueueApp()
    ofctl = OfctlRestApp()
    update_app = TransientUpdateApp(
        network.topo, queue,
        default_match=Match(eth_type=0x0800, ipv4_dst="10.0.0.2"),
    )
    for app in (queue, ofctl, update_app):
        network.controller.register_app(app)
    network.start()
    rest = build_rest_api(
        ofctl, update_app, queue,
        flush=network.flush, campaign_root=str(tmp_path),
    )
    return network, rest


class TestWiredApi:
    def test_switches(self, api):
        _, rest = api
        response = rest.handle("GET", "/stats/switches")
        assert response.status == 200
        assert len(response.body) == 12

    def test_flowentry_and_stats(self, api):
        network, rest = api
        response = rest.handle(
            "POST",
            "/stats/flowentry/add",
            {"dpid": 5, "priority": 11, "match": {"in_port": 1},
             "actions": [{"type": "OUTPUT", "port": 2}]},
        )
        assert response.status == 200
        stats = rest.handle("GET", "/stats/flow/5")
        assert stats.status == 200
        assert stats.body["5"][0]["priority"] == 11

    def test_update_via_paper_format(self, api):
        network, rest = api
        problem = figure1_problem()
        body = {
            "oldpath": list(problem.old_path.nodes),
            "newpath": list(problem.new_path.nodes),
            "wp": problem.waypoint,
            "interval": 0,
        }
        response = rest.handle("POST", "/update/wayup", body)
        assert response.status == 200
        assert response.body["rounds"] == 5
        update_id = response.body["update_id"]
        status = rest.handle("GET", f"/update/{update_id}")
        assert status.status == 200
        assert status.body["state"] == "completed"
        assert status.body["rounds"] == 5

    def test_update_bad_body_rejected(self, api):
        _, rest = api
        response = rest.handle("POST", "/update/wayup", {"oldpath": [1]})
        assert response.status == 400

    @pytest.mark.parametrize(
        "match", [{"dl_type": 2048, "nw_dst": "10.0.0.999"}, {"bogus": 1}]
    )
    def test_update_with_malformed_match_is_400_and_sends_nothing(self, api, match):
        network, rest = api
        problem = figure1_problem()
        body = {
            "oldpath": list(problem.old_path.nodes),
            "newpath": list(problem.new_path.nodes),
            "wp": problem.waypoint,
            "match": match,
        }
        before = to_switch_sent(network)
        response = rest.handle("POST", "/update/wayup", body)
        assert response.status == 400
        assert "bad match" in response.body["error"]
        network.flush()
        assert to_switch_sent(network) == before
        assert not rest.update_app.submitted

    @pytest.mark.parametrize(
        "match", [{"dl_type": 2048, "nw_dst": "10.0.0.999"}, {"bogus": 1}]
    )
    def test_malformed_match_in_flowentry_or_override_is_400(self, api, match):
        network, rest = api
        before = to_switch_sent(network)
        entry = {"dpid": 5, "priority": 11, "match": match, "actions": []}
        response = rest.handle("POST", "/stats/flowentry/add", entry)
        assert response.status == 400 and "bad flow entry" in response.body["error"]
        problem = figure1_problem()
        body = {
            "oldpath": list(problem.old_path.nodes),
            "newpath": list(problem.new_path.nodes),
            "wp": problem.waypoint,
            "add": [entry],
        }
        response = rest.handle("POST", "/update/wayup", body)
        assert response.status == 400 and "override" in response.body["error"]
        network.flush()
        assert to_switch_sent(network) == before
        assert not rest.update_app.submitted

    @pytest.mark.parametrize("extra, error", [
        ({"priority": "abc"}, "'priority'"),
        ({"priority": -5}, "'priority'"),
        ({"priority": 65536}, "'priority'"),
        ({"priority": True}, "'priority'"),
        ({"match": "x"}, "'match'"),
        ({"match": None}, "'match'"),
        ({"barriers": "no"}, "'barriers'"),
        ({"add": [{"dpid": "x"}]}, "'dpid'"),
        ({"modify": [{"dpid": "\u00b2"}]}, "'dpid'"),
        ({"delete": [{"dpid": True}]}, "'dpid'"),
    ])
    def test_malformed_optional_update_fields_are_a_400(self, api, extra, error):
        network, rest = api
        before = to_switch_sent(network)
        response = rest.handle("POST", "/update/wayup", {**figure1_body(), **extra})
        assert response.status == 400 and error in response.body["error"]
        network.flush()
        assert to_switch_sent(network) == before
        assert not rest.update_app.submitted

    def test_malformed_update_keeps_the_connection_over_http(self, api):
        import http.client
        import json

        from repro.rest.http_binding import RestHttpServer

        _, rest = api
        server = RestHttpServer(rest, port=0)
        server.start()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

        def post(body):
            connection.request("POST", "/update/wayup", body=json.dumps(body).encode(),
                               headers={"Content-Type": "application/json"})
            reply = connection.getresponse()
            return reply, json.loads(reply.read())

        try:
            reply, body = post({**figure1_body(), "priority": "abc"})
            assert reply.status == 400 and "'priority'" in body["error"]
            assert not reply.will_close
            sock = connection.sock
            reply, body = post({**figure1_body(), "barriers": False})
            assert reply.status == 200 and connection.sock is sock
            assert body["rounds"] == 5
        finally:
            connection.close()
            server.stop()

    def test_unknown_update_404(self, api):
        _, rest = api
        assert rest.handle("GET", "/update/ghost").status == 404

    def test_bad_dpid_400(self, api):
        _, rest = api
        assert rest.handle("GET", "/stats/flow/bogus").status == 400

    def test_unknown_dpid_404(self, api):
        _, rest = api
        response = rest.handle("GET", "/stats/flow/999")
        assert response.status == 404
        assert "999" in response.body["error"]


class TestScheduleEndpoint:
    """POST /schedule -- the scheduler service over the wire."""

    def _body(self, **extra):
        body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5],
                "wp": 3}
        body.update(extra)
        return body

    def test_compute_and_verify(self, api):
        _, rest = api
        response = rest.handle("POST", "/schedule", self._body())
        assert response.status == 200
        assert response.body["status"] == "ok"
        assert response.body["scheduler"] == "wayup"
        assert response.body["verified"] is True
        assert response.body["guarantee"] == ["wpe", "blackhole"]
        assert response.body["rounds"] == len(response.body["schedule"]["rounds"])

    def test_alias_and_params_resolve(self, api):
        _, rest = api
        response = rest.handle(
            "POST", "/schedule",
            self._body(scheduler="greedy_slf", cleanup=False),
        )
        assert response.status == 200
        assert response.body["scheduler"] == "greedy-slf"
        response = rest.handle(
            "POST", "/schedule",
            self._body(scheduler="optimal:slf?max_rounds=4"),
        )
        assert response.status == 200
        assert response.body["scheduler"] == "optimal:slf?max_rounds=4"

    @pytest.mark.parametrize(
        "removed",
        [{"engine": "sets"}, {"use_oracle": False}, {"search": "bfs"},
         {"monotone_prune": False}],
    )
    def test_removed_engine_params_are_a_400(self, api, removed):
        _, rest = api
        (key, value), = removed.items()
        in_spec = f"optimal:rlf?{key}={str(value).lower()}"
        for body in (
            self._body(scheduler=in_spec),
            self._body(scheduler="optimal:rlf", params=removed),
        ):
            response = rest.handle("POST", "/schedule", body)
            assert response.status == 400
            assert key in response.body["error"]
            assert "time_limit_s" in response.body["error"]  # what is accepted

    def test_two_phase_by_construction(self, api):
        _, rest = api
        response = rest.handle(
            "POST", "/schedule", self._body(scheduler="two_phase")
        )
        assert response.status == 200
        assert response.body["scheduler"] == "two-phase"
        assert response.body["verified"] is True
        assert response.body["verification_method"].startswith("by-construction")

    def test_explicit_properties(self, api):
        _, rest = api
        response = rest.handle(
            "POST", "/schedule",
            self._body(scheduler="oneshot", properties=["wpe", "blackhole"]),
        )
        assert response.status == 200
        assert response.body["verified"] is False
        assert response.body["violations"]

    def test_infeasible_is_an_answer_not_an_error(self, api):
        _, rest = api
        # WPE + SLF clash on the crossing shape: old 1-2-3-4-5 wp 3 vs a
        # new path that reverses the interior
        response = rest.handle(
            "POST", "/schedule",
            {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 4, 3, 2, 5],
             "wp": 3, "scheduler": "combined:slf+wpe+blackhole"},
        )
        assert response.status == 200
        assert response.body["status"] == "infeasible"
        # canonical name, like every other machine-output path
        assert response.body["scheduler"] == "combined:wpe+slf+blackhole"

    def test_bad_requests_rejected(self, api):
        _, rest = api
        assert rest.handle("POST", "/schedule", {"oldpath": [1, 2]}).status == 400
        assert rest.handle(
            "POST", "/schedule", self._body(scheduler="no-such")
        ).status == 400
        assert rest.handle(
            "POST", "/schedule", self._body(bogus=1)
        ).status == 400
        # wayup without a waypoint is a client error
        assert rest.handle(
            "POST", "/schedule",
            {"oldpath": [1, 2, 3], "newpath": [1, 4, 3], "scheduler": "wayup"},
        ).status == 400

    def test_engine_refusals_are_400_not_crashes(self, api):
        _, rest = api
        # exact-search size cap (DEFAULT_MAX_NODES=24: 30 updates exceed it)
        big = {"oldpath": list(range(1, 32)),
               "newpath": [1] + list(range(30, 1, -1)) + [31],
               "scheduler": "optimal:rlf"}
        assert rest.handle("POST", "/schedule", big).status == 400
        # unknown search mode and mistyped params
        assert rest.handle(
            "POST", "/schedule",
            self._body(scheduler="optimal:rlf", params={"search": "zzz"}),
        ).status == 400
        assert rest.handle(
            "POST", "/schedule",
            self._body(scheduler="optimal:rlf", params={"max_rounds": "3"}),
        ).status == 400
        # WPE verification requested on a waypointless problem
        assert rest.handle(
            "POST", "/schedule",
            {"oldpath": [1, 2, 3], "newpath": [1, 4, 3],
             "scheduler": "oneshot", "properties": ["wpe"]},
        ).status == 400

    @pytest.mark.parametrize("key, text, value", [
        ("time_limit_s", "nan", float("nan")),
        ("time_limit_s", "inf", float("inf")),
        ("time_limit_s", "0", 0),
        ("time_limit_s", "-1", -1),
        ("node_budget", "0", 0),
        ("node_budget", "-1", -1),
        ("node_budget", "2.5", 2.5),
    ])
    def test_budgets_that_bound_nothing_are_a_400(self, api, key, text, value):
        """``nan`` would make the search deadline unreachable, and a budget
        below one expansion is answered as exhausted before it starts."""
        _, rest = api
        body = {"oldpath": [1, 2, 3], "newpath": [1, 4, 3], "verify": True}
        for sent in (
            dict(body, scheduler=f"optimal:rlf?{key}={text}"),
            dict(body, scheduler="optimal:rlf", params={key: value}),
        ):
            response = rest.handle("POST", "/schedule", sent)
            assert response.status == 400, sent
            assert key in response.body["error"]

    @pytest.mark.parametrize("key, text, value", [
        ("nogood_limit", "abc", "abc"),
        ("nogood_limit", "-1", -1),
        ("nogood_limit", "2.5", 2.5),
        ("nogood_limit", "true", True),
        ("max_nodes", "abc", "abc"),
        ("max_nodes", "0", 0),
        ("max_nodes", "true", True),
        ("max_rounds", "abc", "abc"),
        ("max_rounds", "-1", -1),
        ("max_rounds", "false", False),
        ("node_budget", "true", True),
        ("rlf_budget", "abc", "abc"),
        ("rlf_budget", "-1", -1),
        ("rlf_budget", "0", 0),
        ("rlf_budget", "2.5", 2.5),
        ("exact", "abc", "abc"),
        ("exact", "1", 1),
        ("check_rounds", "maybe", "maybe"),
        ("check_rounds", "0", 0),
    ])
    def test_malformed_knobs_are_a_400(self, api, key, text, value):
        """Spec-string knobs reach the engine with no ``params`` in the
        body, where a ``TypeError`` / ``ValueError`` stays loud (and a
        junk bool would be echoed back in the canonical name of a 200):
        each one must be refused at resolve time instead."""
        _, rest = api
        base = {"rlf_budget": "peacock", "exact": "peacock",
                "check_rounds": "wayup"}.get(key, "optimal:rlf")
        body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3,
                "verify": True}
        for sent in (
            dict(body, scheduler=f"{base}?{key}={text}"),
            dict(body, scheduler=base, params={key: value}),
        ):
            response = rest.handle("POST", "/schedule", sent)
            assert response.status == 400, sent
            assert key in response.body["error"]

    def test_malformed_knob_gets_a_400_reply_over_http(self, api):
        from repro.errors import HttpStatusError
        from repro.rest.http_binding import HttpClient, RestHttpServer

        _, rest = api
        server = RestHttpServer(rest, port=0)
        server.start()
        try:
            sleeps = []
            client = HttpClient(server.url, sleep=sleeps.append)
            with pytest.raises(HttpStatusError) as err:
                client.post("/schedule", {
                    "oldpath": [1, 2, 3], "newpath": [1, 4, 3],
                    "scheduler": "optimal:slf?nogood_limit=abc",
                })
            assert err.value.status == 400
            assert "nogood_limit" in err.value.body["error"]
            assert sleeps == [] and client.retries == 0
        finally:
            server.stop()

    def test_wellformed_scheduler_knobs_still_run(self, api):
        _, rest = api
        body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3}
        response = rest.handle("POST", "/schedule",
                               dict(body, scheduler="peacock?exact=no"))
        assert response.status == 200
        assert response.body["scheduler"] == "peacock?exact=false"

    @pytest.mark.parametrize("spec, accepted", [
        ("peacock?rlf_budget=5", "['exact']"),
        ("combined:rlf?rlf_budget=5", "[]"),
        ("wayup?check_rounds=true", "[]"),
    ])
    def test_removed_knobs_are_a_400_naming_the_accepted_set(
        self, api, spec, accepted
    ):
        _, rest = api
        body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3}
        response = rest.handle("POST", "/schedule", dict(body, scheduler=spec))
        assert response.status == 400, spec
        assert response.body["error"].endswith(f"accepted: {accepted}")

    def test_malformed_rlf_budget_keeps_the_connection_over_http(self, api):
        import http.client
        import json

        from repro.rest.http_binding import RestHttpServer

        _, rest = api
        server = RestHttpServer(rest, port=0)
        server.start()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

        def post(spec):
            connection.request("POST", "/schedule", body=json.dumps({
                "oldpath": [1, 2, 3], "newpath": [1, 4, 3], "scheduler": spec,
            }).encode(), headers={"Content-Type": "application/json"})
            reply = connection.getresponse()
            return reply, json.loads(reply.read())

        try:
            reply, body = post("peacock?rlf_budget=abc")
            assert reply.status == 400 and "rlf_budget" in body["error"]
            assert not reply.will_close
            sock = connection.sock
            reply, _ = post("peacock")
            assert reply.status == 200 and connection.sock is sock
        finally:
            connection.close()
            server.stop()

    def test_scheduler_listing_matches_registry(self, api):
        _, rest = api
        from repro.core.registry import REGISTRY

        response = rest.handle("GET", "/schedulers")
        assert response.status == 200
        assert [row["name"] for row in response.body] == REGISTRY.names()
        wayup = next(row for row in response.body if row["name"] == "wayup")
        assert wayup["requires_waypoint"] is True
        assert wayup["guarantee"] == ["wpe", "blackhole"]
        optimal = next(row for row in response.body if row["name"] == "optimal")
        assert optimal["accepts"] == [
            "max_nodes", "max_rounds", "node_budget", "nogood_limit",
            "time_limit_s",
        ]
        accepts = {row["name"]: row["accepts"] for row in response.body}
        assert accepts["peacock"] == ["exact"]
        assert accepts["combined"] == accepts["wayup"] == []


CAMPAIGN_SPEC = {
    "name": "rest-mini",
    "seed": 1,
    "families": [
        {"family": "reversal", "sizes": [6, 8]},
        {"family": "slalom", "sizes": [2]},
    ],
    "schedulers": ["peacock", "wayup"],
}


class TestCampaignRoutes:
    def test_submit_then_status_and_report(self, api):
        _, rest = api
        response = rest.handle("POST", "/campaigns", CAMPAIGN_SPEC)
        assert response.status == 200
        assert response.body["done"] == 6
        campaign_id = response.body["campaign_id"]

        listing = rest.handle("GET", "/campaigns")
        assert listing.status == 200 and campaign_id in listing.body

        status = rest.handle("GET", f"/campaigns/{campaign_id}")
        assert status.status == 200
        assert status.body["remaining"] == 0
        assert status.body["by_status"]["error"] == 0

        report = rest.handle("GET", f"/campaigns/{campaign_id}/report")
        assert report.status == 200
        families = {row["family"] for row in report.body["rows"]}
        assert families == {"reversal", "slalom"}

    def test_submit_wrapped_spec_with_workers(self, api):
        _, rest = api
        response = rest.handle(
            "POST", "/campaigns", {"spec": CAMPAIGN_SPEC, "workers": 2}
        )
        assert response.status == 200
        assert response.body["remaining"] == 0

    def test_unknown_campaign_404(self, api):
        _, rest = api
        assert rest.handle("GET", "/campaigns/ghost").status == 404
        assert rest.handle("GET", "/campaigns/ghost/report").status == 404

    def test_bad_spec_400(self, api):
        _, rest = api
        response = rest.handle("POST", "/campaigns", {"name": "x"})
        assert response.status == 400
        assert "spec" in response.body["error"]
        assert rest.handle("POST", "/campaigns", "not-an-object").status == 400


class TestHttpBinding:
    def test_real_http_roundtrip(self, api):
        import json
        import urllib.request

        _, rest = api
        from repro.rest.http_binding import RestHttpServer

        server = RestHttpServer(rest, port=0)
        server.start()
        try:
            with urllib.request.urlopen(f"{server.url}/stats/switches") as response:
                assert response.status == 200
                assert len(json.loads(response.read())) == 12
            request = urllib.request.Request(
                f"{server.url}/stats/flowentry/add",
                data=json.dumps(
                    {"dpid": 1, "match": {"in_port": 1},
                     "actions": [{"type": "OUTPUT", "port": 2}]}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
        finally:
            server.stop()
