"""Fabric smoke: a faulty worker fleet must reproduce the pool runner.

Stands up a campaign coordinator behind the REST surface and throws a
deliberately unhealthy 3-worker process fleet at it:

* worker 0 is SIGKILLed mid-cell (after computing its 3rd record, before
  submitting it); it starts alone, and the others only once it holds a
  lease, so its death does not depend on which spawned process is up
  first;
* worker 1 never heartbeats and naps before its first submit, so it is
  declared dead mid-run, its lease reclaimed, and its eventual submit
  arrives stale (it then re-registers and keeps working);
* worker 2 is healthy.

The gate: every cell completes and ``results.jsonl`` is byte-identical
to a 1-worker :class:`~repro.campaign.runner.CampaignRunner` baseline --
the fabric's determinism contract under death, reclaim, and stale
delivery.  Non-zero exit on any mismatch, so it can gate CI.

The fleet runs with the JSONL trace sink armed (``REPRO_TRACE_DIR``):
after the run, the merged coordinator + worker trace must reconstruct
every cell's full lease → run → submit lifecycle -- including the cells
the SIGKILLed and frozen-heartbeat workers lost mid-flight -- via
``verify_lifecycles`` in ``tests/campaign/fabric_helpers.py``, the fault
harness that also builds the two faulty workers.

Usage::

    PYTHONPATH=src python benchmarks/run_fabric_smoke.py [--root DIR]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import pathlib
import sys
import tempfile
import time

from repro.campaign import CampaignRunner, CampaignSpec
from repro.obs import configure_tracing, load_trace, reset_global_tracer
from repro.rest.api import build_campaign_api
from repro.rest.http_binding import RestHttpServer

# the fault harness lives with the tests, under the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.campaign.fabric_helpers import (  # noqa: E402
    Faults,
    faulty_worker_main,
    reconstruct_cell_lifecycles,
    verify_lifecycles,
)

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

FAULTS = {
    "victim": Faults(kill_after_cells=3),
    "frozen": Faults(freeze_heartbeats_after=0, delay_submits={0: 1.0}),
    "steady": None,
}


def leased(coordinator, name: str) -> bool:
    """Whether a worker called ``name`` has been granted any cell."""
    return any(worker["name"] == name and worker["cells_leased"]
               for worker in coordinator.telemetry()["workers"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="work directory (default: a fresh temp dir)")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    root = args.root or tempfile.mkdtemp(prefix="fabric-smoke-")

    spec = CampaignSpec.from_dict(SPEC)
    n_cells = len(spec.expand())
    print(f"fabric-smoke: {n_cells} cells -> {root}")

    print("running 1-worker pool baseline ...")
    runner = CampaignRunner(spec, root=f"{root}/baseline", workers=1)
    runner.run()
    baseline = runner.store.results_bytes()

    # arm tracing only for the fleet half: the env var reaches the
    # spawned workers (each writes traces/trace-<pid>.jsonl), and the
    # main process -- coordinator side -- attaches its own sink
    trace_dir = f"{root}/traces"
    os.environ["REPRO_TRACE_DIR"] = trace_dir
    configure_tracing(directory=trace_dir)

    print("running 3-worker faulty fleet over HTTP ...")
    api = build_campaign_api(campaign_root=f"{root}/fleet")
    server = RestHttpServer(api, port=0)
    server.start()
    try:
        api.campaigns.serve({
            "spec": spec.to_dict(),
            "lease_ttl_s": 0.5,
            "heartbeat_interval_s": 0.1,
            "lease_cells": 4,
        })
        coordinator = api.campaigns.fabric(spec.campaign_id)
        ctx = multiprocessing.get_context("spawn")
        procs = {
            name: ctx.Process(
                target=faulty_worker_main,
                args=(server.url, spec.campaign_id, faults),
                kwargs={"name": name},
                daemon=True,
            )
            for name, faults in FAULTS.items()
        }
        procs["victim"].start()
        deadline = time.monotonic() + args.timeout
        while (procs["victim"].is_alive() and time.monotonic() < deadline
               and not leased(coordinator, "victim")):
            time.sleep(0.01)
        for name, proc in procs.items():
            if name != "victim":
                proc.start()
        finished = coordinator.wait(timeout_s=args.timeout)
        for proc in procs.values():
            proc.join(timeout=15)
        coordinator.close()
        status = coordinator.status()
        fleet_bytes = coordinator.store.results_bytes()
    finally:
        server.stop()
        api.campaigns.close()
        reset_global_tracer()  # flush + close the coordinator's sink
        os.environ.pop("REPRO_TRACE_DIR", None)

    fabric = status["fabric"]
    print("fabric counters: " + ", ".join(
        f"{key}={fabric[key]}"
        for key in ("leases_granted", "cells_leased", "reclaims", "retries",
                    "escalations", "duplicate_submits", "stale_submits",
                    "transient_failures")
    ))
    print(f"victim exitcode: {procs['victim'].exitcode} (expect -9)")

    failures = []
    if not finished:
        failures.append(f"fleet did not finish within {args.timeout}s")
    if status["done"] != n_cells:
        failures.append(f"{status['done']}/{n_cells} cells done")
    if procs["victim"].exitcode != -9:
        failures.append("victim worker was not SIGKILLed")
    if fabric["reclaims"] < 1:
        failures.append("no lease was ever reclaimed")
    if fleet_bytes != baseline:
        failures.append("fleet results.jsonl differs from 1-worker baseline")

    records = load_trace(trace_dir)
    lifecycles = reconstruct_cell_lifecycles(records)
    expected = [cell.cell_id for cell in spec.expand()]
    reclaimed = sum(c.reclaims for c in lifecycles.values())
    print(
        f"trace: {len(records)} records, {len(lifecycles)} cell "
        f"lifecycles, {reclaimed} reclaim events"
    )
    for problem in verify_lifecycles(records, expected):
        failures.append(f"trace: {problem}")
    if len(lifecycles) < n_cells:
        failures.append(
            f"trace covers {len(lifecycles)}/{n_cells} cell lifecycles"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"fabric-smoke OK: {n_cells} cells, fleet output byte-identical "
          "to the 1-worker baseline, all lifecycles reconstructed from "
          "the trace")
    return 0


if __name__ == "__main__":
    sys.exit(main())
