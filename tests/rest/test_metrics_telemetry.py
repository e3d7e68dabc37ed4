"""REST tests for ``GET /metrics`` and the fabric telemetry route."""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric.coordinator import COUNTERS
from repro.campaign.runner import run_cell
from repro.rest.api import build_campaign_api, build_rest_api
from tests.campaign.fabric_helpers import (
    Faults,
    lie,
    run_local_fleet,
    sealed,
)
from tests.metrics.scrape import parse_exposition

SPEC = {
    "name": "telem",
    "families": [{"family": "reversal", "sizes": [4], "repeats": 2}],
    "schedulers": ["peacock"],
}


@pytest.fixture
def api(tmp_path):
    api = build_campaign_api(campaign_root=str(tmp_path))
    yield api
    api.campaigns.close()


def _serve(api, spec=SPEC, **options):
    response = api.handle("POST", "/campaigns/serve",
                          {"spec": spec, **options})
    assert response.status == 200, response.body
    return CampaignSpec.from_dict(spec).campaign_id


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
        assert f'repro_fabric_leases_granted{{campaign="{campaign_id}"}}' in (
            response.body)
        assert "repro_api_schedule_wall_ms_bucket" in response.body

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
        # histograms hold after 10,000 requests is what they held after
        # 10, and their counts take in every request of the process
        from repro.core.api import request_histograms, schedule_update
        from repro.core.hardness import reversal_instance

        def footprint():
            return [(h.name, len(h.counts)) for h in request_histograms()]

        def counts():
            samples = parse_exposition(api.handle("GET", "/metrics").body)
            return (samples["repro_api_schedule_wall_ms_count"],
                    samples["repro_api_schedule_rounds_count"])

        problem = reversal_instance(4)
        schedule_update(problem, "oneshot", verify=False)
        before = counts()
        for _ in range(10):
            schedule_update(problem, "oneshot", verify=False)
        after_ten = footprint()
        for _ in range(9_990):
            schedule_update(problem, "oneshot", verify=False)
        assert footprint() == after_ten
        assert counts() == (before[0] + 10_000, before[1] + 10_000)

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

    def test_per_worker_tallies_are_a_family_of_their_own(self, api):
        campaign_id = _serve(api)
        worker_id = _drain(api, campaign_id)
        samples = parse_exposition(api.handle("GET", "/metrics").body)
        campaign = f'campaign="{campaign_id}"'
        assert samples[f"repro_fabric_cells_leased{{{campaign}}}"] == 2
        assert samples[f'repro_fabric_worker_cells_leased{{{campaign},'
                       f'worker="{worker_id}"}}'] == 2
        # no series of the campaign-total family carries a worker label,
        # so summing it counts every lease once
        assert not any(series.startswith("repro_fabric_cells_leased{")
                       and "worker=" in series for series in samples)

    def test_every_counter_matches_the_coordinator(self, api):
        # a lying worker under full audit: ``audit_mismatches`` is bumped
        # both for a worker (its run contradicts an accepted one) and for
        # none (an audit's losers); the scrape must carry every bump
        # six cells: with two, the honest pair settled both before the
        # liar's first submission in about one run in 150
        spec = {**SPEC, "families": [
            {"family": "reversal", "sizes": [4, 6], "repeats": 3}]}
        campaign_id = _serve(api, spec, audit_fraction=1, lease_cells=1)
        coordinator = api.campaigns.fabric(campaign_id)
        run_local_fleet(coordinator, 3, {0: Faults(lie_after_cells=0)})
        assert coordinator.finished
        assert coordinator.counters["audit_mismatches"] >= 1
        samples = parse_exposition(api.handle("GET", "/metrics").body)
        for name in COUNTERS:
            series = f'repro_fabric_{name}{{campaign="{campaign_id}"}}'
            assert samples[series] == coordinator.counters[name], name

    def test_worker_and_audit_mismatches_both_reach_the_scrape(self, api):
        # by hand, both bumps: ``a`` contradicts its own candidate (the
        # submit path, for a worker), then ``b`` and ``c`` outvote the
        # liar (the audit's losers, for no worker)
        campaign_id = _serve(api, audit_fraction=1)
        coordinator = api.campaigns.fabric(campaign_id)
        ids = {name: coordinator.register({"name": name})["worker_id"]
               for name in ("a", "liar", "b", "c")}

        def run(name, lying=False, resubmit=False):
            reply = coordinator.lease(ids[name], 1)
            [payload] = reply["cells"]
            record, timing = run_cell(payload)
            for falsify in ((False, True) if resubmit else (lying,)):
                sent = lie(record) if falsify else record
                coordinator.submit(
                    ids[name], reply["lease_id"], payload["cell_id"], sent,
                    timing, sealed(payload, sent),
                )

        run("a", resubmit=True)
        run("liar", lying=True)
        run("b")
        run("c")
        assert coordinator.counters["audit_mismatches"] == 2
        samples = parse_exposition(api.handle("GET", "/metrics").body)
        series = f'repro_fabric_audit_mismatches{{campaign="{campaign_id}"}}'
        assert samples[series] == 2

    def test_reserving_a_finished_campaign_closes_the_old_coordinator(
        self, api
    ):
        campaign_id = _serve(api)
        _drain(api, campaign_id)
        old = api.campaigns.fabric(campaign_id)
        journal = old._journal._handle
        assert journal is not None and not journal.closed
        _serve(api)
        new = api.campaigns.fabric(campaign_id)
        assert new is not old
        assert journal.closed
        body = api.handle("GET", "/metrics").body
        campaign = f'campaign="{campaign_id}"'
        [line] = [line for line in body.splitlines()
                  if line.startswith(f"repro_fabric_leases_granted{{{campaign}")]
        assert line.endswith(f" {new.counters['leases_granted']}")


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
