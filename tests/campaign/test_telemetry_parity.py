"""Fleet vs pool telemetry parity on the 42-cell smoke grid.

The timing sidecar now carries the envelope's own numbers per cell
(``api_wall_ms`` plus the summed ``oracle`` counter deltas), so fabric
telemetry and pool-runner output must report the *same* figures for the
same campaign.  Wall-clock fields vary run to run; the oracle counter
deltas are deterministic given a cold cache and canonical cell order,
and that determinism is the parity contract checked here -- on the same
42-cell grid ``make fabric-smoke`` gates in CI.
"""

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import Coordinator
from repro.campaign.runner import _unit_cache
from repro.core.oracle import clear_registry
from repro.metrics import percentile
from repro.rest.api import build_campaign_api
from tests.campaign.fabric_helpers import run_local_fleet

#: The ``make fabric-smoke`` grid (benchmarks/run_fabric_smoke.py).
SPEC = {
    "name": "fabric-smoke",
    "seed": 42,
    "schedulers": ["peacock", "greedy-slf", "wayup"],
    "timeout_s": 30,
    "families": [
        {"family": "reversal", "sizes": [6, 10, 14, 18]},
        {"family": "sawtooth", "sizes": [10, 14, 18]},
        {"family": "slalom", "sizes": [2, 4, 6]},
        {"family": "random-update", "sizes": [8, 12], "repeats": 2},
    ],
}
N_CELLS = 42


def _cold_start():
    """Both runs must see identical (cold) oracle/unit caches."""
    clear_registry()
    _unit_cache().clear()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The pool run and the 1-worker fleet run of the same grid."""
    spec = CampaignSpec.from_dict(SPEC)
    assert len(spec.expand()) == N_CELLS

    _cold_start()
    pool = CampaignRunner(
        spec, root=str(tmp_path_factory.mktemp("pool")), workers=1
    )
    pool.run()

    _cold_start()
    coordinator = Coordinator(
        spec, root=str(tmp_path_factory.mktemp("fleet")), lease_cells=4
    )
    run_local_fleet(coordinator, 1)
    coordinator.close()
    assert coordinator.finished
    telemetry = coordinator.telemetry()
    return pool.store, coordinator.store, telemetry


class TestTimingSidecarParity:
    def test_results_are_byte_identical(self, runs):
        pool_store, fleet_store, _ = runs
        assert pool_store.results_bytes() == fleet_store.results_bytes()

    def test_sidecars_cover_every_cell_with_the_same_schema(self, runs):
        pool_store, fleet_store, _ = runs
        pool_timings = pool_store.timings()
        fleet_timings = fleet_store.timings()
        assert [t["id"] for t in pool_timings] == [
            t["id"] for t in fleet_timings
        ]
        assert len(pool_timings) == N_CELLS
        for timing in pool_timings + fleet_timings:
            assert set(timing) == {
                "id", "wall_ms", "api_wall_ms", "peak_rss_kb", "oracle"
            }
            assert timing["wall_ms"] >= timing["api_wall_ms"] >= 0.0
            rss = timing["peak_rss_kb"]
            assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_oracle_deltas_match_cell_for_cell(self, runs):
        # the deterministic half of the sidecar: same cells, same order,
        # same cold caches => identical oracle counter deltas, however
        # the cells were transported
        pool_store, fleet_store, _ = runs
        for mine, theirs in zip(pool_store.timings(), fleet_store.timings()):
            assert mine["oracle"] == theirs["oracle"], mine["id"]

    def test_scheduled_cells_report_nonzero_envelope_time(self, runs):
        pool_store, _, _ = runs
        timings = {t["id"]: t for t in pool_store.timings()}
        for record in pool_store.records():
            if record["status"] == "ok" and record["rounds"]:
                assert timings[record["id"]]["api_wall_ms"] > 0.0
        # at least the oracle-backed schedulers must have left deltas
        assert any(t["oracle"] for t in timings.values())


class TestFleetTelemetry:
    def test_telemetry_accounts_for_every_cell(self, runs):
        _, _, telemetry = runs
        assert telemetry["finished"] is True
        assert telemetry["done"] == telemetry["total"] == N_CELLS
        [worker] = telemetry["workers"]
        assert worker["cells_done"] == N_CELLS
        assert worker["in_flight"] == 0
        assert worker["cells_per_s"] > 0

    def test_cell_walls_reach_the_report_route(self, runs):
        # timings.jsonl owns each cell's wall time; the report route's
        # wall columns are its percentiles per family x scheduler
        _, fleet_store, _ = runs
        api = build_campaign_api(campaign_root=str(fleet_store.directory.parent))
        response = api.handle(
            "GET", f"/campaigns/{fleet_store.campaign_id}/report")
        assert response.status == 200
        rows = response.body["rows"]
        walls = {t["id"]: t["wall_ms"] for t in fleet_store.timings()}
        assert len(walls) == N_CELLS
        for row in rows:
            mine = sorted(
                walls[r["id"]] for r in fleet_store.records()
                if (r["family"], r["scheduler"]) == (row["family"],
                                                     row["scheduler"])
                and r["status"] in ("ok", "noop")
            )
            if not mine:  # e.g. wayup on a waypoint-free family
                assert row["wall ms p50"] == row["wall ms p90"] == "-"
                continue
            assert row["wall ms p50"] == percentile(mine, 50)
            assert row["wall ms p90"] == percentile(mine, 90)
            assert 0.0 < row["wall ms p50"] <= row["wall ms p90"]
        assert sum(row["ok"] for row in rows) > N_CELLS // 2
