"""Tests for the campaign fabric REST surface (serve + worker protocol)."""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.runner import run_cell
from repro.rest.api import build_campaign_api
from tests.campaign.fabric_helpers import sealed

SPEC = {
    "name": "restfab",
    "families": [{"family": "reversal", "sizes": [4]}],
    "schedulers": ["peacock"],
}


@pytest.fixture
def api(tmp_path):
    api = build_campaign_api(campaign_root=str(tmp_path))
    yield api
    api.campaigns.close()


def _serve(api, spec_dict=SPEC, **options):
    response = api.handle("POST", "/campaigns/serve",
                          {"spec": spec_dict, **options})
    assert response.status == 200, response.body
    return CampaignSpec.from_dict(spec_dict).campaign_id


class TestServe:
    def test_serve_returns_status(self, api):
        response = api.handle("POST", "/campaigns/serve", {"spec": SPEC})
        assert response.status == 200
        assert response.body["total"] == 1
        assert response.body["fabric"]["pending"] == 1

    def test_served_ids_listed(self, api):
        campaign_id = _serve(api)
        response = api.handle("GET", "/campaigns/fabric")
        assert response.body == {"campaigns": [campaign_id]}

    def test_bad_spec_is_400(self, api):
        response = api.handle("POST", "/campaigns/serve",
                              {"spec": {"name": "x"}})
        assert response.status == 400

    def test_missing_spec_is_400(self, api):
        assert api.handle("POST", "/campaigns/serve", {}).status == 400

    def test_unknown_option_is_400(self, api):
        response = api.handle("POST", "/campaigns/serve",
                              {"spec": SPEC, "lease_ttl": 5})
        assert response.status == 400
        assert "lease_ttl" in response.body["error"]

    def test_non_numeric_option_is_400(self, api):
        response = api.handle("POST", "/campaigns/serve",
                              {"spec": SPEC, "lease_cells": "many"})
        assert response.status == 400

    def test_double_serve_is_400(self, api):
        _serve(api)
        response = api.handle("POST", "/campaigns/serve", {"spec": SPEC})
        assert response.status == 400
        assert "already" in response.body["error"]

    def test_unknown_campaign_fabric_status_is_404(self, api):
        assert api.handle("GET", "/campaigns/nope/fabric").status == 404
        response = api.handle("POST", "/campaigns/nope/fabric/register", {})
        assert response.status == 404


class TestWorkerProtocol:
    def _register(self, api, campaign_id):
        response = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/register",
            {"name": "t"},
        )
        assert response.status == 200
        return response.body["worker_id"]

    def test_full_protocol_roundtrip(self, api):
        campaign_id = _serve(api)
        worker_id = self._register(api, campaign_id)

        beat = api.handle("POST", f"/campaigns/{campaign_id}/fabric/heartbeat",
                          {"worker_id": worker_id})
        assert beat.body["ok"] is True and beat.body["done"] is False

        lease = api.handle("POST", f"/campaigns/{campaign_id}/fabric/lease",
                           {"worker_id": worker_id}).body
        assert len(lease["cells"]) == 1
        payload = lease["cells"][0]
        record, timing = run_cell(payload)

        submit = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/submit",
            {"worker_id": worker_id, "lease_id": lease["lease_id"],
             "cell_id": payload["cell_id"], "record": record,
             "timing": timing, "integrity": sealed(payload, record)},
        ).body
        assert submit == {"accepted": True, "duplicate": False, "done": True}

        # at-least-once delivery: the duplicate is a counted no-op
        duplicate = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/submit",
            {"worker_id": worker_id, "lease_id": lease["lease_id"],
             "cell_id": payload["cell_id"], "record": record,
             "timing": timing, "integrity": sealed(payload, record)},
        ).body
        assert duplicate["duplicate"] is True and duplicate["done"] is True

        status = api.handle("GET", f"/campaigns/{campaign_id}/fabric").body
        assert status["done"] == 1
        assert status["fabric"]["duplicate_submits"] == 1

    def test_lease_from_unregistered_worker(self, api):
        campaign_id = _serve(api)
        reply = api.handle("POST", f"/campaigns/{campaign_id}/fabric/lease",
                           {"worker_id": "w9-ghost"}).body
        assert reply["unknown_worker"] is True

    def test_missing_worker_id_is_400(self, api):
        campaign_id = _serve(api)
        for verb in ("heartbeat", "lease", "submit", "fail"):
            response = api.handle(
                "POST", f"/campaigns/{campaign_id}/fabric/{verb}", {}
            )
            assert response.status == 400, verb

    def test_submit_missing_record_is_400(self, api):
        campaign_id = _serve(api)
        worker_id = self._register(api, campaign_id)
        response = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/submit",
            {"worker_id": worker_id, "lease_id": "l1", "cell_id": "c"},
        )
        assert response.status == 400

    def test_unknown_cell_is_400(self, api):
        campaign_id = _serve(api)
        worker_id = self._register(api, campaign_id)
        response = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/fail",
            {"worker_id": worker_id, "lease_id": "l1",
             "cell_id": "no-such-cell"},
        )
        assert response.status == 400

    def test_unknown_verb_is_404(self, api):
        campaign_id = _serve(api)
        response = api.handle(
            "POST", f"/campaigns/{campaign_id}/fabric/destroy",
            {"worker_id": "w"},
        )
        assert response.status == 404

    def test_completed_campaign_queryable_via_plain_routes(self, api):
        campaign_id = _serve(api)
        worker_id = self._register(api, campaign_id)
        lease = api.handle("POST", f"/campaigns/{campaign_id}/fabric/lease",
                           {"worker_id": worker_id}).body
        payload = lease["cells"][0]
        record, timing = run_cell(payload)
        api.handle("POST", f"/campaigns/{campaign_id}/fabric/submit",
                   {"worker_id": worker_id, "lease_id": lease["lease_id"],
                    "cell_id": payload["cell_id"], "record": record,
                    "timing": timing, "integrity": sealed(payload, record)})
        # the folded results are visible through the ordinary store routes
        assert api.handle("GET", f"/campaigns/{campaign_id}").body["done"] == 1
        report = api.handle("GET", f"/campaigns/{campaign_id}/report").body
        assert report["campaign_id"] == campaign_id
        assert len(report["rows"]) == 1
