"""Shared-secret auth on the HTTP binding (``X-Repro-Auth``).

Binding beyond loopback demands a token; a token mismatch must 401
*immediately* (fast-fail, no transient-retry loop), and a matching
token must be invisible -- every verb works exactly as unauthenticated
loopback does.
"""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric.transport import HttpFabricClient
from repro.campaign.runner import run_cell
from repro.errors import HttpStatusError
from repro.rest.api import build_campaign_api
from repro.rest.http_binding import RestHttpServer, HttpClient
from tests.campaign.fabric_helpers import sealed

SPEC = {
    "name": "auth",
    "seed": 3,
    "families": [{"family": "reversal", "sizes": [4]}],
    "schedulers": ["peacock"],
}

TOKEN = "s3cret-fleet-token"


@pytest.fixture
def served(tmp_path):
    """A token-guarded server with SPEC already being served."""
    api = build_campaign_api(campaign_root=str(tmp_path))
    response = api.handle("POST", "/campaigns/serve", {"spec": SPEC})
    assert response.status == 200, response.body
    server = RestHttpServer(api, port=0, token=TOKEN)
    server.start()
    try:
        yield server
    finally:
        server.stop()
        api.campaigns.close()


class TestTokenGate:
    def test_missing_token_fails_fast_with_401(self, served):
        sleeps = []
        client = HttpClient(served.url, sleep=sleeps.append)
        with pytest.raises(HttpStatusError) as err:
            client.get("/campaigns")
        assert err.value.status == 401
        # 4xx means "the request is wrong, not the weather": no retries
        assert sleeps == []

    def test_wrong_token_fails_fast_with_401(self, served):
        sleeps = []
        client = HttpClient(
            served.url, token="not-the-token", sleep=sleeps.append
        )
        with pytest.raises(HttpStatusError) as err:
            client.post("/campaigns/serve", {"spec": SPEC})
        assert err.value.status == 401
        assert sleeps == []

    def test_matching_token_is_invisible(self, served):
        client = HttpClient(served.url, token=TOKEN)
        assert CampaignSpec.from_dict(SPEC).campaign_id in client.get(
            "/campaigns"
        )

    def test_fabric_worker_verbs_end_to_end(self, served):
        campaign_id = CampaignSpec.from_dict(SPEC).campaign_id
        fabric = HttpFabricClient(served.url, campaign_id, token=TOKEN)
        worker_id = fabric.register({"name": "authed"})["worker_id"]
        lease = fabric.lease(worker_id)
        assert lease["cells"]
        for payload in lease["cells"]:
            record, timing = run_cell(payload)
            reply = fabric.submit(
                worker_id, lease["lease_id"], payload["cell_id"],
                record, timing, sealed(payload, record),
            )
            assert reply["accepted"]
        assert fabric.deregister(worker_id)["ok"]

    def test_mismatched_fabric_client_fast_fails(self, served):
        campaign_id = CampaignSpec.from_dict(SPEC).campaign_id
        fabric = HttpFabricClient(served.url, campaign_id, token="wrong")
        with pytest.raises(HttpStatusError) as err:
            fabric.register({"name": "intruder"})
        assert err.value.status == 401


class TestBindPolicy:
    def test_non_loopback_bind_requires_token(self, tmp_path):
        api = build_campaign_api(campaign_root=str(tmp_path))
        try:
            with pytest.raises(ValueError, match="--token"):
                RestHttpServer(api, port=0, host="0.0.0.0")
        finally:
            api.campaigns.close()

    def test_non_loopback_bind_with_token_serves(self, tmp_path):
        api = build_campaign_api(campaign_root=str(tmp_path))
        server = RestHttpServer(api, port=0, host="0.0.0.0", token=TOKEN)
        server.start()
        try:
            assert server.url.startswith("http://127.0.0.1:")
            assert HttpClient(server.url, token=TOKEN).get(
                "/campaigns"
            ) == []
        finally:
            server.stop()
            api.campaigns.close()

    def test_loopback_stays_tokenless(self, tmp_path):
        api = build_campaign_api(campaign_root=str(tmp_path))
        server = RestHttpServer(api, port=0)
        server.start()
        try:
            assert HttpClient(server.url).get("/campaigns") == []
        finally:
            server.stop()
            api.campaigns.close()
