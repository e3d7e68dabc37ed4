"""Integrity smoke: a hostile fleet must still reproduce the pool runner.

Phase A stands up a coordinator behind the REST surface with every cell
audited (``audit_fraction=1.0``) and throws a 4-worker process fleet at
it:

* ``liar`` computes two honest cells, then submits well-formed records
  with wrong numbers (checksums match -- only audit re-execution on a
  different worker can catch it);
* ``corruptor`` bit-damages its second submission *after* checksumming
  it (wire corruption -- the canonical-JSON checksum catches it at the
  door);
* ``steady`` and ``honest`` are healthy, and start only once the
  coordinator has seen three submissions from ``liar`` and two from
  ``corruptor`` (or quarantined them): the two hostile workers alone
  get the first cells, so each reaches its fault whichever spawned
  process is up first.

The spec also carries one OOM-rigged ``memhog`` cell under a 64 MB
address-space guard, so the smoke proves a poison-adjacent failure
(unbounded allocation) degrades into a deterministic, byte-stable error
record instead of killing workers.

The gate: the liar is quarantined by an audit mismatch, the corruptor by
an integrity reject, and ``results.jsonl`` is byte-identical to a
1-worker :class:`~repro.campaign.runner.CampaignRunner` baseline.

Phase B runs a thread fleet where every worker dies on the same cell:
after exactly ``poison_kill_threshold`` distinct-worker kills the cell
must be declared poisoned and terminally recorded while the survivor
finishes the campaign.  Non-zero exit on any failed gate, so it can
gate CI.  The faults come from the harness the fault tests use,
``tests/campaign/fabric_helpers.py``.

Usage::

    PYTHONPATH=src python benchmarks/run_integrity_smoke.py [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import sys
import tempfile
import time

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import Coordinator
from repro.rest.api import build_campaign_api
from repro.rest.http_binding import RestHttpServer

# the fault harness lives with the tests, under the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.campaign.fabric_helpers import (  # noqa: E402
    Faults,
    faulty_worker_main,
    run_local_fleet,
)

SPEC = {
    "name": "integrity-smoke",
    "seed": 42,
    "schedulers": ["peacock", "greedy-slf"],
    "timeout_s": 30,
    "mem_limit_mb": 64,
    "families": [
        {"family": "reversal", "sizes": [6, 10, 14]},
        {"family": "sawtooth", "sizes": [10, 14]},
        {"family": "random-update", "sizes": [8, 12], "repeats": 2},
        # rigged: allocates ~512 MB against the 64 MB rlimit guard and
        # must fold as a deterministic MemoryError record, not an OOM kill
        {"family": "memhog", "sizes": [512]},
    ],
}

FAULTS = {
    "liar": Faults(lie_after_cells=2),
    "corruptor": Faults(corrupt_submits=(1,)),
    "steady": None,
    "honest": None,
}

#: Submissions each hostile worker makes before the honest pair starts:
#: enough to reach its fault.
HOSTILE_SUBMITS = {"liar": 3, "corruptor": 2}

POISON_SPEC = {
    "name": "integrity-smoke-poison",
    "seed": 7,
    "schedulers": ["peacock", "greedy-slf"],
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
}

POISON_KILL_THRESHOLD = 2


def hostile_done(coordinator) -> bool:
    """Whether each hostile worker has made its ``HOSTILE_SUBMITS`` or
    been quarantined; a leased cell no longer in flight was submitted."""
    telemetry = coordinator.telemetry()
    for name, needed in HOSTILE_SUBMITS.items():
        mine = [w for w in telemetry["workers"] if w["name"] == name]
        submitted = sum(w["cells_leased"] - w["in_flight"] for w in mine)
        if submitted < needed and name not in telemetry["quarantined_workers"]:
            return False
    return True


def phase_a(root: str, timeout_s: float) -> list[str]:
    """Hostile HTTP fleet: lies, corruption, one OOM cell."""
    spec = CampaignSpec.from_dict(SPEC)
    n_cells = len(spec.expand())
    print(f"phase A: {n_cells} cells, 4 workers (liar + corruptor) "
          f"-> {root}")

    print("  running 1-worker pool baseline ...")
    runner = CampaignRunner(spec, root=f"{root}/baseline", workers=1)
    runner.run()
    baseline = runner.store.results_bytes()

    print("  running hostile fleet over HTTP, audit_fraction=1.0 ...")
    api = build_campaign_api(campaign_root=f"{root}/fleet")
    server = RestHttpServer(api, port=0)
    server.start()
    try:
        api.campaigns.serve({
            "spec": spec.to_dict(),
            "lease_ttl_s": 0.5,
            "heartbeat_interval_s": 0.1,
            "lease_cells": 2,
            "audit_fraction": 1.0,
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
        deadline = time.monotonic() + timeout_s
        for name in HOSTILE_SUBMITS:
            procs[name].start()
        while time.monotonic() < deadline and not hostile_done(coordinator):
            time.sleep(0.01)
        for name, proc in procs.items():
            if name not in HOSTILE_SUBMITS:
                proc.start()
        finished = coordinator.wait(timeout_s=deadline - time.monotonic())
        for proc in procs.values():
            proc.join(timeout=15)
        coordinator.close()
        status = coordinator.status()
        records = coordinator.store.records()
        fleet_bytes = coordinator.store.results_bytes()
    finally:
        server.stop()
        api.campaigns.close()

    fabric = status["fabric"]
    print("  fabric counters: " + ", ".join(
        f"{key}={fabric[key]}"
        for key in ("integrity_rejects", "audits_run", "audit_mismatches",
                    "quarantines", "retries")
    ))
    print(f"  quarantined: {fabric['quarantined_workers']}")

    failures = []
    if not finished:
        failures.append(f"A: fleet did not finish within {timeout_s}s")
    if status["done"] != n_cells:
        failures.append(f"A: {status['done']}/{n_cells} cells done")
    if fleet_bytes != baseline:
        failures.append(
            "A: fleet results.jsonl differs from 1-worker baseline"
        )
    if fabric["integrity_rejects"] < 1:
        failures.append("A: no submission was rejected on checksum")
    if fabric["audit_mismatches"] < 1:
        failures.append("A: no audit mismatch was ever detected")
    if "liar" not in fabric["quarantined_workers"]:
        failures.append("A: the lying worker was never quarantined")
    if "corruptor" not in fabric["quarantined_workers"]:
        failures.append("A: the corrupting worker was never quarantined")
    rigged = sum(1 for c in spec.expand() if c.family == "memhog")
    oom = [r for r in records if "MemoryError" in str(r.get("detail", ""))]
    if len(oom) != rigged or any(r["status"] != "error" for r in oom):
        failures.append(
            "A: the rigged memhog cells did not fold as MemoryError records"
        )
    return failures


def phase_b(root: str, timeout_s: float) -> list[str]:
    """Poison containment: a cell that kills every worker it touches."""
    spec = CampaignSpec.from_dict(POISON_SPEC)
    poison_id = spec.expand()[0].cell_id
    n_cells = len(spec.expand())
    print(f"phase B: {n_cells} cells, poison cell {poison_id!r}, "
          f"kill threshold {POISON_KILL_THRESHOLD}")

    print("  running 1-worker pool baseline ...")
    runner = CampaignRunner(spec, root=f"{root}/poison-baseline", workers=1)
    runner.run()
    expected = [
        json.loads(line)
        for line in runner.store.results_bytes().decode().splitlines()
    ]

    print("  running 3-worker fleet that dies on the poison cell ...")
    coordinator = Coordinator(
        spec,
        root=f"{root}/poison-fleet",
        lease_ttl_s=0.5,
        heartbeat_interval_s=0.1,
        lease_cells=1,
        poison_kill_threshold=POISON_KILL_THRESHOLD,
    )
    faults = {i: Faults(die_on_cells=(poison_id,)) for i in range(3)}
    summaries = run_local_fleet(coordinator, 3, faults)
    coordinator.close()
    died = sum(1 for s in summaries if s["died"])
    print(f"  kills={coordinator.counters['kills']} "
          f"poisoned={coordinator.counters['poisoned_cells']} "
          f"workers_died={died}")

    failures = []
    records = coordinator.store.records()
    if not coordinator.finished:
        failures.append("B: fleet did not finish")
    if coordinator.counters["kills"] != POISON_KILL_THRESHOLD:
        failures.append(
            f"B: expected exactly {POISON_KILL_THRESHOLD} kills, saw "
            f"{coordinator.counters['kills']}"
        )
    if coordinator.counters["poisoned_cells"] != 1:
        failures.append("B: the poison cell was not contained")
    if not records or "poisoned" not in str(records[0].get("detail", "")):
        failures.append("B: no terminal poisoned record for the first cell")
    if records[1:] != expected[1:]:
        failures.append("B: surviving cells differ from pool baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="work directory (default: a fresh temp dir)")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    root = args.root or tempfile.mkdtemp(prefix="integrity-smoke-")

    failures = phase_a(root, args.timeout)
    failures += phase_b(root, args.timeout)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("integrity-smoke OK: corruption rejected at the door, lies "
          "caught by audit, both hostile workers quarantined, the OOM "
          "cell degraded to a deterministic error, the poison cell was "
          "contained, and every surviving byte matches the pool baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
