"""REST tests for ``GET /metrics`` and the fabric telemetry route."""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.runner import run_cell
from repro.metrics import global_collector, reset_global_collector
from repro.rest.api import build_campaign_api, build_rest_api
from tests.campaign.fabric_helpers import sealed

SPEC = {
    "name": "telem",
    "families": [{"family": "reversal", "sizes": [4], "repeats": 2}],
    "schedulers": ["peacock"],
}


@pytest.fixture
def api(tmp_path):
    reset_global_collector()
    api = build_campaign_api(campaign_root=str(tmp_path))
    yield api
    api.campaigns.close()
    reset_global_collector()


def _serve(api, **options):
    response = api.handle("POST", "/campaigns/serve",
                          {"spec": SPEC, **options})
    assert response.status == 200, response.body
    return CampaignSpec.from_dict(SPEC).campaign_id


def _drain(api, campaign_id):
    """Work the campaign to completion through the REST verbs."""
    base = f"/campaigns/{campaign_id}/fabric"
    worker_id = api.handle(
        "POST", f"{base}/register", {"name": "wk"}
    ).body["worker_id"]
    while True:
        reply = api.handle(
            "POST", f"{base}/lease", {"worker_id": worker_id}
        ).body
        if not reply["cells"]:
            return worker_id
        for payload in reply["cells"]:
            record, timing = run_cell(payload)
            api.handle("POST", f"{base}/submit", {
                "worker_id": worker_id, "lease_id": reply["lease_id"],
                "cell_id": payload["cell_id"], "record": record,
                "timing": timing, "integrity": sealed(payload, record),
            })


class TestMetricsRoute:
    def test_plain_text_exposition(self, api):
        campaign_id = _serve(api)
        _drain(api, campaign_id)
        response = api.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert isinstance(response.body, str)
        assert "# TYPE repro_fabric_leases_granted counter" in response.body
        assert "repro_fabric_cell_wall_ms_bucket" in response.body

    def test_oracle_counters_spliced_in(self, api):
        # run a cell so the aggregate oracle stats are non-trivial
        campaign_id = _serve(api)
        _drain(api, campaign_id)
        body = api.handle("GET", "/metrics").body
        assert "repro_oracle_" in body

    def test_oracle_counters_never_fall(self, api):
        # Prometheus counters: freeing a problem must not take its
        # oracle's work back out of the totals
        import gc

        from repro.core.hardness import reversal_instance
        from repro.core.api import schedule_update

        def scrape():
            return {
                name: float(value)
                for name, _, value in (
                    line.rpartition(" ")
                    for line in api.handle("GET", "/metrics").body.splitlines()
                    if line.startswith("repro_oracle_")
                )
            }

        problems = [reversal_instance(n) for n in (6, 8, 10)]
        for problem in problems:
            schedule_update(problem, "greedy-slf")
        before = scrape()
        assert before["repro_oracle_applies"] > 0
        del problems, problem
        gc.collect()
        after = scrape()
        assert after.keys() == before.keys()
        assert all(after[name] >= before[name] for name in before)

    def test_request_path_keeps_no_sample_per_request(self, api):
        # ``execute_request`` reports into fixed buckets: what the
        # collector holds after 10,000 requests is what it held after 10
        from repro.core.api import schedule_update
        from repro.core.hardness import reversal_instance

        def footprint():
            collector = global_collector()
            return {
                h.name: len(h.counts) for h in collector.histograms.values()
            }

        problem = reversal_instance(4)
        for _ in range(10):
            schedule_update(problem, "oneshot", verify=False)
        after_ten = footprint()
        for _ in range(9_990):
            schedule_update(problem, "oneshot", verify=False)
        assert footprint() == after_ten
        body = api.handle("GET", "/metrics").body
        assert "repro_api_schedule_wall_ms_count 10000" in body
        assert "repro_api_schedule_rounds_count 10000" in body

    def test_served_on_the_full_api_too(self, tmp_path):
        from repro.controller.ofctl_rest import OfctlRestApp
        from repro.controller.ofctl_rest_own import TransientUpdateApp
        from repro.controller.update_queue import UpdateQueueApp
        from repro.netlab.network import Network
        from repro.topology.builders import figure1

        network = Network(figure1(with_hosts=True), seed=0)
        queue = UpdateQueueApp()
        ofctl = OfctlRestApp()
        update_app = TransientUpdateApp(network.topo, queue)
        for app in (queue, ofctl, update_app):
            network.controller.register_app(app)
        network.start()
        rest = build_rest_api(
            ofctl, update_app, queue, campaign_root=str(tmp_path)
        )
        response = rest.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")

    def test_per_worker_labels_present(self, api):
        campaign_id = _serve(api)
        _drain(api, campaign_id)
        body = api.handle("GET", "/metrics").body
        assert 'repro_fabric_cells_leased{worker="' in body


class TestTelemetryRoute:
    def test_unknown_campaign_is_404(self, api):
        response = api.handle("GET", "/campaigns/nope/fabric/telemetry")
        assert response.status == 404

    def test_live_telemetry_shape(self, api):
        campaign_id = _serve(api)
        base = f"/campaigns/{campaign_id}/fabric"
        worker_id = api.handle(
            "POST", f"{base}/register", {"name": "wk"}
        ).body["worker_id"]
        api.handle("POST", f"{base}/lease", {"worker_id": worker_id})
        body = api.handle("GET", f"{base}/telemetry").body
        assert body["campaign"] == campaign_id
        assert body["finished"] is False
        assert body["total"] == 2
        assert body["uptime_s"] >= 0.0
        assert set(body["counters"]) >= {
            "leases_granted", "reclaims", "retries", "escalations",
        }
        [worker] = body["workers"]
        assert worker["worker_id"] == worker_id
        assert worker["alive"] is True
        assert worker["in_flight"] >= 1
        assert worker["lease_ages_s"]  # one age per open lease

    def test_finished_telemetry_counts_cells_done(self, api):
        campaign_id = _serve(api)
        worker_id = _drain(api, campaign_id)
        body = api.handle(
            "GET", f"/campaigns/{campaign_id}/fabric/telemetry"
        ).body
        assert body["finished"] is True
        assert body["done"] == body["total"] == 2
        [worker] = body["workers"]
        assert worker["worker_id"] == worker_id
        assert worker["cells_done"] == 2
        assert worker["in_flight"] == 0

    def test_dead_workers_stay_visible(self, api):
        campaign_id = _serve(api, heartbeat_timeout_s=0.0)
        base = f"/campaigns/{campaign_id}/fabric"
        api.handle("POST", f"{base}/register", {"name": "ghost"})
        # a zero heartbeat timeout means the worker ages out immediately
        # on the next reap; telemetry must still list it
        import time

        time.sleep(0.01)
        body = api.handle("GET", f"{base}/telemetry").body
        [worker] = body["workers"]
        assert worker["alive"] is False
        assert worker["last_seen_age_s"] is None
