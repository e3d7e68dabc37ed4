"""Trace-id propagation across the HTTP fabric boundary.

The coordinator handles worker RPCs on server threads with fresh
``contextvars`` contexts, so any stitching between a worker's spans and
the coordinator's accept/lifecycle spans can only come from the
``X-Repro-Trace`` / ``X-Repro-Span`` headers the HTTP binding carries.
These tests run real workers against a real HTTP server with the ring
sink armed and assert the merged trace stitches -- including under
injected duplicated and delayed submits, which must surface as flagged
no-ops, never as duplicate or orphaned accept spans.
"""

import threading

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric import HttpFabricClient
from repro.obs import configure_tracing, reset_global_tracer
from repro.rest.api import build_campaign_api
from repro.rest.http_binding import RestHttpServer
from tests.campaign.fabric_helpers import (
    Faults,
    faulty_worker,
    reconstruct_cell_lifecycles,
    verify_lifecycles,
)

SPEC = {
    "name": "obsfab",
    "seed": 11,
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
    "schedulers": ["peacock", "greedy-slf"],
}
N_CELLS = 8


@pytest.fixture(autouse=True)
def _traced():
    reset_global_tracer()
    tracer = configure_tracing(ring=16384)
    [sink] = tracer.sinks()
    yield sink
    reset_global_tracer()


@pytest.fixture
def server(tmp_path):
    api = build_campaign_api(campaign_root=str(tmp_path))
    http = RestHttpServer(api, port=0)
    http.start()
    yield api, http
    http.stop()
    api.campaigns.close()


def _run_fleet(server, sink, faults=None, n_workers=1, **serve_options):
    """Serve SPEC over HTTP, drain it with ``n_workers`` thread workers.

    ``faults`` (if given) afflict worker 0 only; the rest stay healthy.
    """
    api, http = server
    spec = CampaignSpec.from_dict(SPEC)
    api.campaigns.serve({
        "spec": spec.to_dict(),
        "lease_ttl_s": 2.0,
        "heartbeat_interval_s": 0.1,
        "lease_cells": 2,
        **serve_options,
    })
    coordinator = api.campaigns.fabric(spec.campaign_id)
    workers = [
        faulty_worker(
            HttpFabricClient(http.url, spec.campaign_id),
            faults if i == 0 else None, name=f"tw{i}",
        )
        for i in range(n_workers)
    ]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers[1:]]
    for thread in threads:
        thread.start()
    workers[0].run()
    for thread in threads:
        thread.join(timeout=30)
    coordinator.close()
    assert coordinator.finished
    return spec, coordinator, sink.records()


class TestHttpPropagation:
    def test_accept_spans_join_worker_traces_via_headers(self, server, _traced):
        spec, coordinator, records = _run_fleet(server, _traced)
        cells = reconstruct_cell_lifecycles(records)
        assert len(cells) == N_CELLS
        # every accepted coordinator-side submit span must share its
        # trace with the worker-side run span of the same cell -- the
        # server thread only knows that trace id from the HTTP headers
        for state in cells.values():
            assert state.accepted_submits == 1
            assert state.accept_traces <= state.run_traces, (
                f"{state.cell_id}: accept trace not stitched to its run"
            )
        expected = [cell.cell_id for cell in spec.expand()]
        assert verify_lifecycles(records, expected) == []

    def test_each_cell_attempt_is_its_own_trace(self, server, _traced):
        spec, coordinator, records = _run_fleet(server, _traced)
        roots = [r for r in records
                 if r["name"] == "fabric.cell" and r["kind"] == "span"]
        assert len(roots) == N_CELLS
        assert len({r["trace"] for r in roots}) == N_CELLS

    def test_rpc_spans_cover_the_protocol(self, server, _traced):
        _run_fleet(server, _traced)
        names = {r["name"] for r in _traced.records()}
        assert {"fabric.rpc.register", "fabric.rpc.lease",
                "fabric.rpc.submit", "fabric.submit",
                "fabric.lease_cell", "campaign.cell",
                "api.execute_request"} <= names


class TestChaosDoesNotCorruptTraces:
    def test_duplicated_submits_stay_single_accepts(self, server, _traced):
        # every submit is sent twice; the second must trace as a flagged
        # duplicate, never as a second accept or an orphaned span
        faults = Faults(duplicate_submits=tuple(range(N_CELLS)))
        spec, coordinator, records = _run_fleet(server, _traced, faults)
        assert coordinator.counters["duplicate_submits"] == N_CELLS
        cells = reconstruct_cell_lifecycles(records)
        assert sum(s.duplicate_submits for s in cells.values()) == N_CELLS
        for state in cells.values():
            assert state.accepted_submits == 1
        expected = [cell.cell_id for cell in spec.expand()]
        assert verify_lifecycles(records, expected) == []

    def test_delayed_stale_submit_traces_clean(self, server, _traced):
        # worker freezes heartbeats and naps before its first submit, so
        # the lease is reclaimed and the submit arrives stale -- the
        # trace must show the reclaim and the stale flag, and still
        # settle every cell exactly once with no orphans
        faults = Faults(freeze_heartbeats_after=0, delay_submits={0: 0.8})
        spec, coordinator, records = _run_fleet(
            server, _traced, faults, n_workers=2,
            lease_cells=1, lease_ttl_s=0.3, heartbeat_timeout_s=0.2,
        )
        assert coordinator.counters["reclaims"] == 1
        cells = reconstruct_cell_lifecycles(records)
        assert sum(s.reclaims for s in cells.values()) == 1
        assert sum(s.stale_submits for s in cells.values()) == 1
        for state in cells.values():
            assert state.accepted_submits == 1
        expected = [cell.cell_id for cell in spec.expand()]
        assert verify_lifecycles(records, expected) == []
