"""Crash smoke: a twice-SIGKILLed coordinator must reproduce the pool runner.

Stands up the campaign coordinator as its *own process* behind the REST
surface, points a healthy 2-worker process fleet at it, and kills the
coordinator twice mid-campaign on a deterministic schedule (``KILLS``):
SIGKILL right after the Nth accept is write-ahead journaled but before it
is acknowledged or flushed -- the exact window the fabric journal exists
to cover -- then restart the coordinator on the same port after a delay.
The kill and the two judges of the trace and the power cut come from the
fault harness, ``tests/campaign/fabric_helpers.py``.
Workers ride out each outage by reconnecting with capped exponential
backoff and resubmitting their undelivered records.

The second death is made a power cut: the journal is the only file the
coordinator fsyncs per record, ``results.jsonl`` / ``timings.jsonl`` are
synced once per compaction, so before the third incarnation starts every
line of theirs whose cell the surviving journal or snapshot still settles
is taken away -- all of them from one file, half from the other -- and
recovery has to re-derive them.

Gates (non-zero exit on any miss, so it can gate CI):

* the final ``results.jsonl`` is byte-identical to a 1-worker
  :class:`~repro.campaign.runner.CampaignRunner` baseline;
* no cell with a journaled accept was ever executed twice: every
  ``campaign.cell`` run span must *start* before the cell's settlement
  (its accepted submit, or the recovery event standing in for an ack
  that died with the old coordinator);
* every recovery actually recovered: both restarts re-admit >= 1
  journaled-but-unflushed shard (``fabric.recovered`` trace events);
* all 42 cell lifecycles reconstruct from the merged trace
  (``verify_lifecycles``);
* the write-ahead journal stays bounded by its compaction interval.

Usage::

    PYTHONPATH=src python benchmarks/run_crash_smoke.py [--root DIR]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import pathlib
import socket
import sys
import tempfile
import time

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import worker_main
from repro.campaign.fabric.journal import JOURNAL
from repro.campaign.store import RESULTS, TIMINGS, RunStore
from repro.obs import load_trace

# the fault harness lives with the tests, under the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.campaign.fabric_helpers import (  # noqa: E402
    durable_cells,
    durable_suffix,
    killed_after,
    reconstruct_cell_lifecycles,
    verify_lifecycles,
)

SPEC = {
    "name": "crash-smoke",
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

#: Two mid-campaign coordinator deaths, each SIGKILLed after that many
#: journaled accepts and restarted that many seconds later, then a clean
#: final incarnation.
KILLS = [
    {"kill_after_accepts": 5, "restart_delay_s": 1.0},
    {"kill_after_accepts": 8, "restart_delay_s": 1.0},
]

JOURNAL_COMPACT_EVERY = 64
N_WORKERS = 2


def serve_once(
    root: str, port: int, kill_after_accepts: int | None, timeout_s: float
) -> None:
    """One coordinator incarnation (process entry point).

    Serves the campaign -- recovering from the fabric journal when a
    previous incarnation died over the same run directory -- *before*
    binding the port, so workers never reach a served-less server.  With
    a kill configured the process SIGKILLs itself mid-accept and never
    returns; otherwise it exits 0 once the campaign completes.
    """
    from repro.rest import campaigns
    from repro.rest.api import build_campaign_api
    from repro.rest.http_binding import RestHttpServer

    spec = CampaignSpec.from_dict(SPEC)
    api = build_campaign_api(campaign_root=root)
    body: dict = {
        "spec": spec.to_dict(),
        "lease_ttl_s": 1.0,
        "heartbeat_interval_s": 0.2,
        "lease_cells": 4,
        "journal_compact_every": JOURNAL_COMPACT_EVERY,
    }
    if kill_after_accepts is not None:
        campaigns.Coordinator = killed_after(kill_after_accepts)
    api.campaigns.serve(body)
    coordinator = api.campaigns.fabric(spec.campaign_id)
    server = RestHttpServer(api, port=port)
    server.start()
    try:
        finished = coordinator.wait(timeout_s=timeout_s)
    finally:
        server.stop()
        api.campaigns.close()
    sys.exit(0 if finished else 3)


def cut_power(directory) -> dict[str, int]:
    """Take from the projection what a power cut may: the lines whose
    cells the surviving journal or snapshot still settles (everything
    older was synced before the compaction that dropped its record).
    ``results.jsonl`` loses all of them, ``timings.jsonl`` the later
    half; returns the lines lost per file."""
    cell_ids = [cell.cell_id for cell in CampaignSpec.from_dict(SPEC).expand()]
    durable = durable_cells(directory, cell_ids)
    lost = {}
    for name in (RESULTS, TIMINGS):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        keep = durable_suffix(lines, durable)
        if name == TIMINGS:
            keep += (len(lines) - keep + 1) // 2
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:keep])
        lost[name] = len(lines) - keep
    return lost


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _span_start(record: dict) -> float:
    """Span records carry their *end* time; recover the start."""
    return float(record["ts"]) - float(record.get("dur_ms", 0.0)) / 1000.0


def check_no_rerun_after_settle(records: list[dict]) -> list[str]:
    """No ``campaign.cell`` run may start after the cell settled.

    Settlement time is the earliest accepted ``fabric.submit`` span end,
    or -- when the accept's ack died with the killed coordinator -- the
    ``fabric.recovered_cell`` event that re-admitted the journaled shard.
    A run starting later would mean a journaled accept was re-executed.
    """
    settled_at: dict[str, float] = {}
    for record in records:
        cell_id = (record.get("attrs") or {}).get("cell_id")
        if not isinstance(cell_id, str):
            continue
        name = record.get("name")
        when = None
        if (
            name == "fabric.submit"
            and (record.get("attrs") or {}).get("outcome") == "accepted"
        ):
            when = float(record["ts"])
        elif name == "fabric.recovered_cell":
            when = float(record["ts"])
        if when is not None:
            settled_at[cell_id] = min(
                settled_at.get(cell_id, when), when
            )
    problems = []
    for record in records:
        if record.get("name") != "campaign.cell":
            continue
        cell_id = (record.get("attrs") or {}).get("cell_id")
        settle = settled_at.get(cell_id)
        if settle is None:
            continue
        started = _span_start(record)
        if started > settle + 0.05:
            problems.append(
                f"{cell_id}: run started {started - settle:.2f}s after its "
                "accept was journaled (re-executed settled work)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="work directory (default: a fresh temp dir)")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    root = args.root or tempfile.mkdtemp(prefix="crash-smoke-")

    spec = CampaignSpec.from_dict(SPEC)
    n_cells = len(spec.expand())
    print(f"crash-smoke: {n_cells} cells -> {root}")

    print("running 1-worker pool baseline ...")
    runner = CampaignRunner(spec, root=f"{root}/baseline", workers=1)
    runner.run()
    baseline = runner.store.results_bytes()

    # every spawned process (coordinator incarnations + workers) inherits
    # the env var and writes its own traces/trace-<pid>.jsonl
    trace_dir = f"{root}/traces"
    os.environ["REPRO_TRACE_DIR"] = trace_dir

    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    fleet_root = f"{root}/fleet"
    ctx = multiprocessing.get_context("spawn")

    schedule = [entry["kill_after_accepts"] for entry in KILLS] + [None]
    print(f"fleet: {N_WORKERS} workers on {url}; coordinator kill "
          f"schedule: {KILLS}")

    workers = [
        ctx.Process(
            target=worker_main, args=(url, spec.campaign_id),
            kwargs={"name": f"steady{i}", "max_offline_s": 60.0},
            daemon=True,
        )
        for i in range(N_WORKERS)
    ]
    failures: list[str] = []
    exitcodes: list[int | None] = []
    lost: dict[str, int] = {}
    try:
        started_workers = False
        for incarnation, kill_after in enumerate(schedule, start=1):
            label = (
                f"kill after {kill_after} accepts"
                if kill_after is not None else "run to completion"
            )
            print(f"coordinator incarnation {incarnation}: {label} ...")
            coord = ctx.Process(
                target=serve_once,
                args=(fleet_root, port, kill_after, args.timeout),
                daemon=True,
            )
            coord.start()
            if not started_workers:
                # workers knock until the first incarnation answers
                for worker in workers:
                    worker.start()
                started_workers = True
            coord.join(timeout=args.timeout)
            if coord.is_alive():  # wedged incarnation: fail loudly
                coord.kill()
                coord.join(timeout=10)
                failures.append(
                    f"incarnation {incarnation} hung past {args.timeout}s"
                )
                break
            exitcodes.append(coord.exitcode)
            if kill_after is not None:
                if coord.exitcode != -9:
                    failures.append(
                        f"incarnation {incarnation} exited {coord.exitcode}, "
                        "expected SIGKILL (-9)"
                    )
                    break
                if incarnation == len(KILLS):
                    lost = cut_power(f"{fleet_root}/{spec.campaign_id}")
                    print(f"power cut: projection lines lost {lost}")
                time.sleep(KILLS[incarnation - 1]["restart_delay_s"])
            elif coord.exitcode != 0:
                failures.append(
                    f"final incarnation exited {coord.exitcode}"
                )
        for worker in workers:
            worker.join(timeout=30)
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
        os.environ.pop("REPRO_TRACE_DIR", None)
    print(f"coordinator exitcodes: {exitcodes} (expect [-9, -9, 0])")

    if lost and not lost[RESULTS] > lost[TIMINGS]:
        failures.append(
            f"the power cut took {lost}; it has to leave results.jsonl "
            "behind timings.jsonl"
        )

    store = RunStore(fleet_root, spec.campaign_id)
    status = store.status()
    fleet_bytes = store.results_bytes()
    if status["done"] != n_cells:
        failures.append(f"{status['done']}/{n_cells} cells done")
    if fleet_bytes != baseline:
        failures.append(
            "fleet results.jsonl differs from 1-worker baseline"
        )
    if [t["id"] for t in store.timings()] != [r["id"] for r in store.records()]:
        failures.append("timings.jsonl is not one line per result")

    journal_lines = 0
    journal_path = os.path.join(store.directory, JOURNAL)
    if os.path.exists(journal_path):
        with open(journal_path, encoding="utf-8") as handle:
            journal_lines = sum(1 for line in handle if line.strip())
    print(f"journal tail after completion: {journal_lines} records "
          f"(compaction interval {JOURNAL_COMPACT_EVERY})")
    if journal_lines > JOURNAL_COMPACT_EVERY:
        failures.append(
            f"journal has {journal_lines} records; compaction should bound "
            f"it at {JOURNAL_COMPACT_EVERY}"
        )

    records = load_trace(trace_dir)
    lifecycles = reconstruct_cell_lifecycles(records)
    recoveries = [
        record for record in records
        if record.get("name") == "fabric.recovered"
    ]
    recovered_cells = sum(
        1 for c in lifecycles.values() if c.recovered
    )
    print(
        f"trace: {len(records)} records, {len(lifecycles)} cell "
        f"lifecycles, {len(recoveries)} recoveries, "
        f"{recovered_cells} cells re-admitted from the journal"
    )
    if len(recoveries) != len(KILLS):
        failures.append(
            f"{len(recoveries)} fabric.recovered events, expected "
            f"{len(KILLS)} (one per restart)"
        )
    for ordinal, event in enumerate(recoveries, start=1):
        buffered = (event.get("attrs") or {}).get("buffered", 0)
        if not buffered:
            failures.append(
                f"recovery #{ordinal} re-admitted no buffered shards; the "
                "kill lands on a journaled-but-unflushed accept"
            )
    expected = [cell.cell_id for cell in spec.expand()]
    for problem in verify_lifecycles(records, expected):
        failures.append(f"trace: {problem}")
    failures.extend(check_no_rerun_after_settle(records))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"crash-smoke OK: {n_cells} cells survived {len(KILLS)} "
          "coordinator SIGKILLs (the second a power cut that took "
          f"{lost[RESULTS]} results / {lost[TIMINGS]} timings lines) "
          "byte-identical to the 1-worker baseline; no journaled accept "
          "was re-executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
