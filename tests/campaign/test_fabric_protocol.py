"""The fabric worker protocol is one table (``transport.VERBS``).

* parity: the table and :class:`Coordinator`'s signatures name the same
  verbs, parameters and defaults -- a verb or a parameter added on one
  side only fails here, as ``journal.KINDS`` <-> ``FabricState`` does;
* one scripted campaign answers the same through ``LocalClient`` and
  through ``HttpFabricClient`` over a loopback server;
* a malformed body is a 400 (an unknown verb a 404), never a 500, and
  journals nothing; so is a body key its verb does not name, and either
  client refuses a parameter its verb does not take;
* the worker's one delivery loop rides out drops, duplicates, damage and
  an outage and counts each cell once;
* the docstrings that list the verbs list the table's.
"""

import inspect
import json
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.rest.api as rest_api
import repro.rest.campaigns as rest_campaigns
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import (
    Coordinator,
    FabricWorker,
    HttpFabricClient,
    LocalClient,
)
from repro.campaign.fabric import coordinator as fabric_coordinator
from repro.campaign.fabric import worker as fabric_worker
from repro.campaign.fabric.transport import _REQUIRED, PATHS, VERBS, WHOLE
from repro.campaign.runner import run_cell
from repro.errors import CampaignError, HttpStatusError, TransportError
from repro.rest.api import build_campaign_api
from repro.rest.campaigns import CampaignService
from repro.rest.http_binding import HttpClient, RestHttpServer
from tests.campaign.fabric_helpers import FaultyClient, Faults, sealed

SWEEP = {
    "name": "proto",
    "seed": 3,
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
    "schedulers": ["peacock", "greedy-slf"],
}
SPEC = CampaignSpec.from_dict(SWEEP)

#: Public ``Coordinator`` methods that are not worker verbs.
LIFECYCLE = {"wait", "close", "status", "telemetry"}


def _entry(payload):
    record, timing = run_cell(payload)
    return {"cell_id": payload["cell_id"], "record": record,
            "timing": timing, "integrity": sealed(payload, record)}


class TestParity:
    def test_every_public_verb_has_a_row_and_every_row_a_verb(self):
        public = {
            name
            for name, member in inspect.getmembers(Coordinator, inspect.isfunction)
            if not name.startswith("_")
        }
        assert public - LIFECYCLE == set(VERBS)

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_row_matches_the_coordinator_signature(self, verb):
        parameters = list(
            inspect.signature(getattr(Coordinator, verb)).parameters.values()
        )[1:]
        assert [p.name for p in parameters] == [f.name for f in VERBS[verb]]
        for parameter, field in zip(parameters, VERBS[verb]):
            required = parameter.default is inspect.Parameter.empty
            assert required == (field.default is _REQUIRED)
            if not required:
                assert parameter.default == field.default

    def test_removing_a_row_or_a_verb_is_noticed(self, monkeypatch):
        monkeypatch.delitem(VERBS, "deregister")
        with pytest.raises(AssertionError):
            self.test_every_public_verb_has_a_row_and_every_row_a_verb()
        monkeypatch.undo()
        monkeypatch.delattr(Coordinator, "heartbeat")
        with pytest.raises(AssertionError):
            self.test_every_public_verb_has_a_row_and_every_row_a_verb()

    def test_wire_keys_are_unique_per_verb(self):
        for verb, fields in VERBS.items():
            keys = [field.wire for field in fields]
            assert len(set(keys)) == len(keys), verb
            assert WHOLE not in keys or len(keys) == 1, verb

    def test_every_verb_travels_under_its_own_name(self):
        assert len(VERBS) == 6
        assert PATHS == tuple(VERBS)

    def test_local_client_hands_out_the_bound_verbs(self, tmp_path):
        coordinator = Coordinator(SPEC, root=str(tmp_path))
        client = LocalClient(coordinator)
        for verb in VERBS:
            assert getattr(client, verb) == getattr(coordinator, verb)
        assert not [
            name for name in vars(LocalClient) if name in VERBS
        ], "LocalClient spells no verb itself"
        coordinator.close()


class TestDocs:
    def test_route_docstrings_list_the_wire_verbs(self):
        assert f"({' / '.join(PATHS)})" in rest_api.__doc__
        assert f"fabric/{'|'.join(PATHS)}``" in rest_campaigns.__doc__


# ---------------------------------------------------------------------------
# one script, two transports
# ---------------------------------------------------------------------------

def _stepping_clock():
    """A second per reading: what a reply says about time depends on how
    many verbs came before it, not on the wall."""
    ticks = iter(range(10**9))
    return lambda: float(next(ticks))


def _scripted_campaign(client):
    """Lease, submit, duplicate, drain, stale, fail, deregister; returns
    every reply in order."""
    replies = []

    def call(verb, *args, **kwargs):
        reply = getattr(client, verb)(*args, **kwargs)
        replies.append((verb, reply))
        return reply

    ann = call("register", {"name": "ann", "pid": 1})["worker_id"]
    bob = call("register", {"name": "bob"})["worker_id"]
    call("heartbeat", ann)
    call("heartbeat", "w9-ghost")
    call("lease", "w9-ghost")
    first = call("lease", ann, 2)
    zero, one = map(_entry, first["cells"])
    call("submit", ann, first["lease_id"], **zero)
    call("submit", ann, first["lease_id"], **zero)  # duplicate
    call("deregister", ann)  # drained: ``one`` goes back unstarted
    second = call("lease", bob, 1)
    assert second["cells"][0]["cell_id"] == one["cell_id"]
    call("submit", ann, first["lease_id"], **one)  # stale: bob holds it now
    call("submit", bob, second["lease_id"], **one)
    ann = call("register", {"name": "ann"})["worker_id"]
    third = call("lease", bob)
    two, three = map(_entry, third["cells"])
    call("fail", bob, third["lease_id"], two["cell_id"], "boom")
    call("submit", bob, third["lease_id"], **three)
    for _ in range(20):
        reply = call("lease", ann, 3)
        if reply["done"]:
            break
        for payload in reply["cells"]:
            call("submit", ann, reply["lease_id"], **_entry(payload))
    else:
        raise AssertionError("the script never finished the campaign")
    call("deregister", ann)
    call("deregister", bob)
    call("lease", bob)
    return replies


def _fresh(root):
    # long TTLs: under the stepping clock nobody may look dead
    return Coordinator(
        SPEC, root=str(root), clock=_stepping_clock(), lease_cells=2,
        lease_ttl_s=1e6, heartbeat_interval_s=1e6,
    )


def test_both_transports_answer_the_script_alike(tmp_path):
    local = _fresh(tmp_path / "local")
    in_process = _scripted_campaign(LocalClient(local))
    local.close()

    remote = _fresh(tmp_path / "remote")
    service = CampaignService(root=str(tmp_path / "remote"))
    service._coordinators[SPEC.campaign_id] = remote
    server = RestHttpServer(build_campaign_api(service=service), port=0)
    server.start()
    try:
        over_http = _scripted_campaign(
            HttpFabricClient(server.url, SPEC.campaign_id)
        )
    finally:
        server.stop()
        service.close()

    assert json.loads(json.dumps(in_process)) == json.loads(json.dumps(over_http))
    assert local.counters == remote.counters
    assert local.counters["stale_submits"] == 1
    assert local.counters["duplicate_submits"] == 2
    assert local.finished and remote.finished
    assert local.store.results_bytes() == remote.store.results_bytes()


# ---------------------------------------------------------------------------
# malformed bodies
# ---------------------------------------------------------------------------

_NOT_A_STRING = [None, 7, True, 1.5, [], {}]
_NOT_AN_OBJECT = [None, 7, True, "x", [], [1]]
#: Per wire key, values of the wrong shape.
WRONG = {
    "worker_id": [*_NOT_A_STRING, ""],
    "lease_id": _NOT_A_STRING,
    "cell_id": _NOT_A_STRING,
    "record": _NOT_AN_OBJECT,
    "timing": _NOT_AN_OBJECT,
    "integrity": _NOT_AN_OBJECT,
    "max_cells": [True, False, 0, -1, 1.5, "2", [], {}],
    "detail": [None, 7, True, [], {}],
}
#: Keys a body may leave out.
OPTIONAL = {"max_cells", "detail"}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A served campaign with one lease out, a well-formed body per path
    but ``register``, and a loopback HTTP server in front of it."""
    api = build_campaign_api(campaign_root=str(tmp_path_factory.mktemp("bad")))
    assert api.handle("POST", "/campaigns/serve", {"spec": SWEEP}).status == 200
    coordinator = api.campaigns.fabric(SPEC.campaign_id)
    worker_id = coordinator.register({"name": "w"})["worker_id"]
    grant = coordinator.lease(worker_id, 2)
    held = {"worker_id": worker_id, "lease_id": grant["lease_id"]}
    entry = _entry(grant["cells"][0])
    bodies = {
        "heartbeat": {"worker_id": worker_id},
        "lease": {"worker_id": worker_id, "max_cells": 1},
        "submit": {**held, **entry},
        "fail": {**held, "cell_id": entry["cell_id"], "detail": "x"},
        "deregister": {"worker_id": worker_id},
    }
    server = RestHttpServer(api, port=0)
    server.start()
    yield api, coordinator, bodies, server
    server.stop()
    api.campaigns.close()


#: The wire keys of each well-formed body that a shape check guards.
BODY_KEYS = {
    "heartbeat": ["worker_id"],
    "lease": ["worker_id", "max_cells"],
    "submit": ["worker_id", "lease_id", "cell_id", "record", "timing", "integrity"],
    "fail": ["worker_id", "lease_id", "cell_id", "detail"],
    "deregister": ["worker_id"],
}


@st.composite
def defects(draw):
    """(name of a well-formed body, what to do to it): every recipe leaves
    at least one thing wrong."""
    name = draw(st.sampled_from(sorted(BODY_KEYS)))
    if draw(st.integers(0, 9)) == 0:
        return name, ("whole", draw(st.sampled_from([None, 7, "x", []])))
    key = draw(st.sampled_from(BODY_KEYS[name]))
    if key not in OPTIONAL and draw(st.booleans()):
        return name, ("drop", key)
    return name, ("set", key, draw(st.sampled_from(WRONG[key])))


def spoiled(body, recipe):
    kind, *how = recipe
    if kind == "whole":
        return how[0]
    if kind == "drop":
        return {k: v for k, v in body.items() if k != how[0]}
    return {**body, how[0]: how[1]}


def _journaled(coordinator):
    return (coordinator.counters["journal_records"],
            coordinator._journal.journal_path.read_bytes())


class TestMalformedBodies:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(defect=defects())
    def test_a_malformed_body_is_400_and_journals_nothing(self, served, defect):
        api, coordinator, bodies, _ = served
        name, recipe = defect
        before = _journaled(coordinator)
        body = spoiled(bodies[name], recipe)
        response = api.handle(
            "POST", f"/campaigns/{SPEC.campaign_id}/fabric/{name}", body
        )
        assert response.status == 400, (name, body, response.body)
        assert _journaled(coordinator) == before

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(verb=st.text(min_size=1).filter(lambda v: "/" not in v),
           name=st.sampled_from(sorted(BODY_KEYS)))
    def test_an_unknown_verb_is_404_whatever_it_carries(self, served, verb, name):
        api, coordinator, bodies, _ = served
        if verb in PATHS:
            return
        before = coordinator.counters["journal_records"]
        response = api.handle(
            "POST", f"/campaigns/{SPEC.campaign_id}/fabric/{verb}", bodies[name]
        )
        assert response.status == 404, (verb, response.body)
        assert coordinator.counters["journal_records"] == before

    @pytest.mark.parametrize("name", sorted(BODY_KEYS))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        # the removed forms, other verbs' keys, anything at all
        key=st.one_of(
            st.sampled_from(["requeue", "records", "entries", "body", "name",
                             "max_cells", "detail", "record", "pid"]),
            st.text(min_size=1),
        ),
        value=st.sampled_from([True, False, None, 0, "x", [], {}]),
    )
    @example(key="requeue", value=True)  # the removed forms
    @example(key="records", value=[])
    def test_a_key_the_verb_does_not_name_is_400(self, served, name, key, value):
        """An old worker's ``{"requeue": true}`` must fail loudly, not be
        charged as a transient failure -- in process and over the wire."""
        api, coordinator, bodies, server = served
        assume(key not in bodies[name])
        before = _journaled(coordinator)
        body = {**bodies[name], key: value}
        path = f"/campaigns/{SPEC.campaign_id}/fabric/{name}"
        response = api.handle("POST", path, body)
        assert response.status == 400, (name, key, response.body)
        assert repr(key) in response.body["error"]
        with pytest.raises(HttpStatusError) as refused:
            HttpClient(server.url).post(path, body)
        assert refused.value.status == 400
        assert refused.value.body == response.body
        assert _journaled(coordinator) == before

    @pytest.mark.parametrize("verb, args, extra", [
        ("fail", ("w1-w", "l1", "c", "draining"), {"requeue": True}),
        ("fail", ("w1-w", "l1", "c", "draining", True), {}),
        ("submit", ("w1-w", "l1", "c", {}, {}, {}), {"records": []}),
        ("heartbeat", ("w1-w",), {"max_cells": 1}),
        ("lease", ("w1-w", 2), {"batch_cells": 2}),
        ("deregister", ("w1-w",), {"requeue": True}),
        ("register", ({"name": "w"},), {"batch_cells": 2}),
    ])
    def test_either_client_refuses_a_parameter_its_verb_lacks(
        self, served, verb, args, extra
    ):
        _, coordinator, _, server = served
        before = _journaled(coordinator)
        for client in (LocalClient(coordinator),
                       HttpFabricClient(server.url, SPEC.campaign_id)):
            with pytest.raises(TypeError):
                getattr(client, verb)(*args, **extra)
        assert _journaled(coordinator) == before

    def test_the_well_formed_bodies_are_well_formed(self, served):
        # last in the class: these do change the coordinator
        api, coordinator, bodies, _ = served
        for name in ("heartbeat", "lease", "submit", "fail"):
            response = api.handle(
                "POST", f"/campaigns/{SPEC.campaign_id}/fabric/{name}",
                bodies[name],
            )
            assert response.status == 200, (name, response.body)
        assert coordinator.counters["journal_records"] > 1


class TestIntegrityIsRequired:
    """Leaving the sidecar out is malformed, not a way round the check."""

    def test_over_http_it_is_a_400(self, served):
        api, coordinator, bodies, _ = served
        body = {k: v for k, v in bodies["submit"].items() if k != "integrity"}
        response = api.handle(
            "POST", f"/campaigns/{SPEC.campaign_id}/fabric/submit", body
        )
        assert response.status == 400 and "integrity" in response.body["error"]
        assert not coordinator._state.quarantined

    def test_in_process_it_is_a_campaign_error(self, tmp_path):
        coordinator = Coordinator(SPEC, root=str(tmp_path))
        worker_id = coordinator.register({"name": "w"})["worker_id"]
        grant = coordinator.lease(worker_id, 1)
        entry = _entry(grant["cells"][0])
        with pytest.raises(CampaignError, match="integrity"):
            coordinator.submit(worker_id, grant["lease_id"],
                               **{**entry, "integrity": None})
        assert coordinator.counters["journal_records"] == 1  # the lease
        assert not coordinator._state.quarantined
        coordinator.close()


class TestRegisterName:
    """A worker name must be a non-empty string: an empty one could be
    told ``quarantined`` and still be leased cells."""

    BAD = ["", None, 7, ["w"]]

    @pytest.mark.parametrize("name", BAD)
    def test_in_process_it_is_a_campaign_error(self, tmp_path, name):
        coordinator = Coordinator(SPEC, root=str(tmp_path))
        with pytest.raises(CampaignError, match="name"):
            coordinator.register({"name": name})
        assert coordinator.telemetry()["workers"] == []
        assert coordinator.counters["journal_records"] == 0
        # left out, it still defaults
        assert coordinator.register({})["worker_id"] == "w1-worker"
        coordinator.close()

    @pytest.mark.parametrize("name", BAD)
    def test_through_dispatch_it_is_a_400(self, served, name):
        api, coordinator, _, _ = served
        journal = coordinator._journal.journal_path
        before = coordinator.status()["fabric"]["workers"], journal.read_bytes()
        response = api.handle(
            "POST", f"/campaigns/{SPEC.campaign_id}/fabric/register",
            {"name": name},
        )
        assert response.status == 400 and "name" in response.body["error"]
        assert before == (
            coordinator.status()["fabric"]["workers"], journal.read_bytes()
        )


class TestServeBody:
    def test_chaos_is_not_a_wire_key(self, tmp_path):
        api = build_campaign_api(campaign_root=str(tmp_path))
        response = api.handle("POST", "/campaigns/serve", {
            "spec": SWEEP,
            "chaos": {"kill_after_accepts": 1, "kill_mode": "sigkill"},
        })
        assert response.status == 400 and "chaos" in response.body["error"]
        assert api.handle("GET", "/campaigns/fabric").body == {"campaigns": []}


# ---------------------------------------------------------------------------
# the worker's one delivery loop
# ---------------------------------------------------------------------------

class _FlakyLink:
    """A client whose first ``k`` deliveries carrying ``cell_id`` are lost
    to a :class:`TransportError` (``inner`` never saw them)."""

    def __init__(self, inner, cell_id, k):
        self._inner = inner
        self.cell_id = cell_id
        self.left = k

    def __getattr__(self, verb):
        return getattr(self._inner, verb)

    def submit(self, worker_id, lease_id, cell_id, record, timing, integrity):
        if cell_id == self.cell_id and self.left:
            self.left -= 1
            raise TransportError("link down")
        return self._inner.submit(
            worker_id, lease_id, cell_id, record, timing, integrity
        )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    runner = CampaignRunner(
        SPEC, root=str(tmp_path_factory.mktemp("baseline")), workers=1
    )
    runner.run()
    return runner.store.results_bytes()


class TestOneDeliveryLoop:
    #: by submit call behind the flaky link: the 2nd shard is lost, the
    #: 4th sent twice, the 7th damaged on the wire
    PLAN = Faults(
        drop_submits=(1,), duplicate_submits=(3,), corrupt_submits=(6,)
    )

    def test_each_cell_counts_once_through_drops_duplicates_and_an_outage(
        self, tmp_path, baseline, monkeypatch
    ):
        monkeypatch.setattr(fabric_coordinator, "BACKOFF_BASE_S", 0.01)
        monkeypatch.setattr(fabric_coordinator, "BACKOFF_CAP_S", 0.02)
        monkeypatch.setattr(fabric_worker, "RECONNECT_BASE_S", 0.001)
        monkeypatch.setattr(fabric_worker, "RECONNECT_CAP_S", 0.002)
        live = []
        coordinator = Coordinator(
            SPEC, root=str(tmp_path), lease_cells=3, lease_ttl_s=1.0,
            # frozen while the chaotic worker runs: no lease of its
            # expires under it
            clock=lambda: 1e3 + time.monotonic() if live else 0.0,
        )
        cells = [cell.cell_id for cell in SPEC.expand()]
        link = FaultyClient(LocalClient(coordinator), self.PLAN)
        chaotic = FabricWorker(
            _FlakyLink(link, cells[4], k=2), name="chaotic",
        ).run()
        live.append(True)
        FabricWorker(LocalClient(coordinator), name="finisher").run()
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert chaotic["quarantined"] and chaotic["reconnects"] == 2
        # cells 0, 2, 3, 4 and 6: cell 1 was dropped, cell 5 abandoned
        # with the lease the outage took, cell 7 refused
        assert chaotic["cells_done"] == 5
        assert chaotic["rejected_submits"] == 1
        for name in ("duplicate_submits", "integrity_rejects", "quarantines"):
            assert coordinator.counters[name] == 1, name


class _ScriptedClient:
    """Answers ``lease`` from a script; everything else is a no-op.
    ``calls`` logs each verb but ``lease`` with the cell it names."""

    def __init__(self, leases):
        self.leases = iter(leases)
        self.calls = []

    def register(self, body):
        self.calls.append(("register",))
        return {"worker_id": "w1-idle", "heartbeat_interval_s": 1e6}

    def lease(self, worker_id, max_cells=None):
        return next(self.leases)

    def submit(self, worker_id, lease_id, cell_id, record, timing, integrity):
        self.calls.append(("submit", cell_id))
        return {"accepted": True, "duplicate": False}

    def fail(self, worker_id, lease_id, cell_id, detail):
        self.calls.append(("fail", cell_id))
        return {"retried": True}

    def deregister(self, worker_id):
        self.calls.append(("deregister",))
        return {"ok": True}


def _cells(*cell_ids):
    return {"lease_id": "l1", "done": False,
            "cells": [{"cell_id": c} for c in cell_ids]}


class TestLeaseReplies:
    DONE = {"cells": [], "done": True}

    def test_a_quarantine_verdict_outranks_done(self):
        # the audit that quarantines a name may settle the last cell too:
        # the worker must still report the verdict, not a clean finish
        client = _ScriptedClient([
            {"cells": [], "quarantined": True, "done": True},
        ])
        summary = FabricWorker(client, name="liar").run()
        assert summary["quarantined"] is True

    def test_a_draining_worker_hands_back_by_deregister_alone(self):
        client = _ScriptedClient([_cells("a", "b", "c")])
        worker = None

        def run_and_drain(payload):
            worker.request_drain()  # SIGTERM arrives mid-cell
            return {"id": payload["cell_id"]}, {}

        worker = FabricWorker(client, name="d", run_cell_fn=run_and_drain)
        summary = worker.run()
        assert summary["drained"] and summary["cells_done"] == 1
        # the in-flight cell is delivered; "b" and "c" are not ``fail``ed
        assert client.calls == [("register",), ("submit", "a"), ("deregister",)]

    def test_a_broken_cell_is_failed_and_the_lease_goes_on(self):
        client = _ScriptedClient([_cells("a", "b"), self.DONE])

        def run(payload):
            if payload["cell_id"] == "a":
                raise OSError("no space left")
            return {"id": payload["cell_id"]}, {}

        summary = FabricWorker(client, name="f", run_cell_fn=run).run()
        assert summary["cells_done"] == 1
        assert client.calls == [
            ("register",), ("fail", "a"), ("submit", "b"), ("deregister",),
        ]


class TestIdlePolling:
    def test_poll_doubles_from_short_up_to_the_hint_and_starts_over(self):
        nothing = {"cells": [], "done": False, "retry_after_s": 0.3}
        slept = []
        worker = FabricWorker(
            _ScriptedClient([
                nothing, nothing, nothing, nothing,
                {"cells": [], "done": False},  # no hint: the poll's own pace
                {"lease_id": "l1", "cells": [{"cell_id": "c"}], "done": False},
                nothing,
                {"cells": [], "done": True},
            ]),
            name="idle", sleep=slept.append,
            run_cell_fn=lambda payload: 1 / 0,  # reported through ``fail``
        )
        worker.run()
        assert slept == [0.05, 0.1, 0.2, 0.3, 0.8, 0.05]
