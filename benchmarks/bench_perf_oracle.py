"""Perf benchmark: the incremental SafetyOracle on its hot paths.

Tracks what the delta-maintained union graphs of :mod:`repro.core.oracle`
cost per scheduler run, per probe and per request.  Emits
``BENCH_oracle.json`` so the perf trajectory is comparable across PRs.
(The comparison rows against the seed-era from-scratch pipeline -- one
union-graph rebuild per query -- are frozen in ``EXPERIMENTS.md``; that
pipeline's scheduler copies no longer exist.)

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_oracle.py [--quick] [--out PATH]

``--quick`` stops the greedy-SLF ladder at n=1000 (``make bench-smoke``
runs it in seconds); the default mode goes to n=2000.  The JSON is only
written from a committed ``src/``: with uncommitted changes there the
gates still run, but the artifact (which carries a git sha) is left alone.

Acceptance targets (tracked in the emitted JSON):

* every greedy-SLF row on the reversal family: ``applies <= 3 * n`` (the
  probe count, which does not move with machine noise; the probe-all loop
  needed ~n^2/2);
* a request costs the same however many oracles are alive in the process:
  ``execute_request`` on a fresh reversal(10) with 1000 live shared oracles
  takes <= 1.3x the time it takes with none (a ratio of two medians from
  one run, so host speed cancels; summing every live oracle twice per
  request, as PR 13 and earlier did, read 5.9-6.6x);
* the count twin of that ratio: the ``OracleStats`` objects that request's
  accounting reads (every read of a counter set in
  :mod:`repro.core.oracle` goes through ``vars``, which is wrapped to
  count them) are as many with 1000 live oracles as with none, and more
  than none;
* a many-round request is linear in its schedule: greedy-SLF search plus
  verification on reversal(2000) takes <= 2.6x what it takes on
  reversal(1000) (again a ratio from one run; re-slotting the settled
  chain per reorder and a whole-graph cycle search per round, as PR 17 and
  earlier did, read 3.9x);
* so is verifying Peacock's few wide rounds against RLF + blackhole
  freedom, the other half of a large ``POST /schedule``: the same <= 2.6x
  on the same two sizes;
* Peacock's search writes each order label about once: <= 1.5 labels per
  node on reversal(500 / 1000 / 2000) (a count, so no timing noise;
  re-inserting the ~n edges the wide round had refused one at a time
  after its commit read 3.2 / 3.4 / 3.8).
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import platform
import statistics
import sys
import time

from _provenance import provenance, write
from repro.core.api import schedule_update
from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.hardness import reversal_instance
from repro.core.optimal import minimal_round_schedule
import repro.core.oracle as oracle_module
from repro.core.oracle import OracleStats, clear_registry, oracle_for
from repro.core.peacock import peacock_schedule
from repro.core.verify import Property, verify_schedule

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_oracle.json"

MAX_PROBES_PER_NODE = 3
MAX_LIVE_ORACLE_COST_RATIO = 1.3
LIVE_ORACLE_COUNTS = (0, 100, 1000)
LIVE_ORACLE_REQUESTS = 300
MAX_DOUBLING_COST_RATIO = 2.6
MAX_PEACOCK_LABELS_PER_NODE = 1.5


def _time(fn, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_greedy(quick: bool) -> dict:
    """Greedy SLF on the reversal family: wall, probes and verification."""
    rows = []
    sizes = (60, 120, 160, 240, 500, 1000) if quick else (
        60, 120, 240, 500, 1000, 2000
    )
    for n in sizes:
        problem = reversal_instance(n)

        def cold_run():
            # cold per repeat: oracle construction and every PK reorder
            # are part of what we gate on
            clear_registry()
            return greedy_slf_schedule(problem, include_cleanup=False)

        oracle_s, schedule = _time(cold_run, repeats=3 if n <= 500 else 1)
        # the last repeat ran on a fresh oracle: its counters are one run's
        stats = oracle_for(problem, (Property.SLF,)).stats
        verify_s, report = _time(
            lambda: verify_schedule(schedule, (Property.SLF,)), repeats=1
        )
        assert report.ok, f"greedy SLF schedule for reversal-{n} failed verification"
        rows.append({
            "n": n,
            "oracle_s": round(oracle_s, 4),
            "rounds": schedule.n_rounds,
            "applies": stats.applies,
            "reverts": stats.reverts,
            "verify_s": round(verify_s, 4),
        })
    return {
        "description": "greedy_slf_schedule(reversal_instance(n))",
        "rows": rows,
        "max_probes_per_node": MAX_PROBES_PER_NODE,
        "meets_probe_bound": all(
            r["applies"] <= MAX_PROBES_PER_NODE * r["n"] for r in rows
        ),
    }


def bench_memoization() -> dict:
    """Warm repeat of the exact search: the shared memo answers everything."""
    problem = reversal_instance(10)
    clear_registry()
    cold_s, _ = _time(
        lambda: minimal_round_schedule(problem, (Property.RLF,)), repeats=1
    )
    warm_s, _ = _time(
        lambda: minimal_round_schedule(problem, (Property.RLF,)), repeats=3
    )
    oracle = oracle_for(problem, (Property.RLF,))
    return {
        "description": "repeat minimal_round_schedule on a warm oracle memo",
        "cold_ms": round(cold_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "warm_speedup": round(cold_s / warm_s, 1),
        "memo_hits": oracle.stats.memo_hits,
        "memo_misses": oracle.stats.memo_misses,
        "memo_size": oracle.memo_size(),
    }


def _live_bystanders(live: int) -> list:
    """``live`` problems whose shared oracle has counted something."""
    clear_registry()
    bystanders = [reversal_instance(6) for _ in range(live)]
    for problem in bystanders:
        oracle_for(problem, (Property.SLF,)).round_is_safe(set(), {2})
    return bystanders


def _stats_read_per_request(live: int) -> int:
    """``OracleStats`` objects one request's accounting reads while
    ``live`` shared oracles are alive."""
    bystanders = _live_bystanders(live)
    reads = 0

    def counting_vars(obj):
        nonlocal reads
        reads += isinstance(obj, OracleStats)
        return vars(obj)

    oracle_module.vars = counting_vars  # shadows the builtin in that module
    try:
        schedule_update(reversal_instance(10), "greedy-slf", verify=True)
    finally:
        del oracle_module.vars
    del bystanders
    return reads


def _median_request_us(live: int) -> float:
    bystanders = _live_bystanders(live)
    samples = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(LIVE_ORACLE_REQUESTS):
            problem = reversal_instance(10)
            start = time.perf_counter()
            schedule_update(problem, "greedy-slf", verify=True)
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(samples) * 1e6


def bench_live_oracles() -> dict:
    """Cost of one request against the number of live shared oracles.

    Every request gets a fresh problem (it builds its own oracle, as a
    ``POST /schedule`` does); the collector is off while timing, so what
    is compared is the request path, not the cost of tracing a larger
    heap.  Three passes over the counts, best median per count.
    """
    best = {live: float("inf") for live in LIVE_ORACLE_COUNTS}
    for _ in range(3):
        for live in LIVE_ORACLE_COUNTS:
            best[live] = min(best[live], _median_request_us(live))
    reads = {live: _stats_read_per_request(live) for live in LIVE_ORACLE_COUNTS}
    clear_registry()
    ratio = best[LIVE_ORACLE_COUNTS[-1]] / best[LIVE_ORACLE_COUNTS[0]]
    return {
        "description": (
            "median execute_request(greedy-slf, reversal-10, verify) vs "
            "live shared oracles in the process"
        ),
        "rows": [
            {
                "live_oracles": live,
                "request_us": round(best[live], 1),
                "stats_read": reads[live],
            }
            for live in LIVE_ORACLE_COUNTS
        ],
        "cost_ratio_at_1000": round(ratio, 3),
        "max_cost_ratio": MAX_LIVE_ORACLE_COST_RATIO,
        "meets_target": ratio <= MAX_LIVE_ORACLE_COST_RATIO,
        "meets_count_target": 0 < reads[LIVE_ORACLE_COUNTS[0]]
        == reads[LIVE_ORACLE_COUNTS[-1]],
    }


def bench_scaling() -> dict:
    """Oracle-backed schedulers at sizes the seed could not touch, and what
    doubling the instance costs a many-round request end to end and the
    verification of Peacock's few wide rounds."""
    rows = []
    for n in (500, 1000, 2000):
        problem = reversal_instance(n)

        def cold_run():
            clear_registry()
            return greedy_slf_schedule(problem, include_cleanup=False)

        greedy_s, greedy = _time(cold_run)
        verify_s, report = _time(lambda: verify_schedule(greedy, (Property.SLF,)))
        assert report.ok, f"greedy SLF schedule for reversal-{n} failed verification"
        clear_registry()
        peacock_s, peacock = _time(
            lambda: peacock_schedule(problem, include_cleanup=False), repeats=1
        )
        # labels the one (cold) run's oracle wrote
        labels = oracle_for(problem, (Property.RLF,))._relabelled
        # a few ms a run: more repeats than the rest, and no collection of
        # what the rows before left on the heap inside the timed window
        gc.collect()
        gc.disable()
        try:
            peacock_verify_s, report = _time(
                lambda: verify_schedule(peacock, (Property.RLF, Property.BLACKHOLE)),
                repeats=5,
            )
        finally:
            gc.enable()
        assert report.ok, f"Peacock schedule for reversal-{n} failed verification"
        rows.append({
            "n": n,
            "greedy_slf_s": round(greedy_s, 4),
            "greedy_verify_s": round(verify_s, 4),
            "greedy_rounds": greedy.n_rounds,
            "peacock_exact_s": round(peacock_s, 4),
            "peacock_labels_per_node": round(labels / n, 3),
            "peacock_verify_s": round(peacock_verify_s, 5),
            "peacock_rounds": peacock.n_rounds,
        })
    cost = {r["n"]: r["greedy_slf_s"] + r["greedy_verify_s"] for r in rows}
    ratio = cost[2000] / cost[1000]
    verify = {r["n"]: r["peacock_verify_s"] for r in rows}
    verify_ratio = verify[2000] / verify[1000]
    labels = max(r["peacock_labels_per_node"] for r in rows)
    return {
        "description": "oracle-backed schedulers on large reversals",
        "rows": rows,
        "doubling_cost_ratio": round(ratio, 3),
        "peacock_verify_doubling_ratio": round(verify_ratio, 3),
        "max_doubling_cost_ratio": MAX_DOUBLING_COST_RATIO,
        "max_peacock_labels_per_node": MAX_PEACOCK_LABELS_PER_NODE,
        "meets_target": max(ratio, verify_ratio) <= MAX_DOUBLING_COST_RATIO
        and labels <= MAX_PEACOCK_LABELS_PER_NODE,
    }


def measure(quick: bool) -> dict:
    """Run every section; returns the payload ``BENCH_oracle.json`` holds."""
    started = time.time()
    payload = {
        "benchmark": "oracle-perf",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "provenance": provenance(),
        "results": {},
    }
    print(f"[bench_perf_oracle] mode={payload['mode']}")
    for name, fn in (
        ("greedy_slf_reversal", lambda: bench_greedy(quick)),
        ("memoization", bench_memoization),
        ("oracle_scaling", bench_scaling),
        ("request_cost_vs_live_oracles", bench_live_oracles),
    ):
        section_start = time.time()
        payload["results"][name] = fn()
        print(f"  {name}: {time.time() - section_start:.1f}s")
    payload["wall_seconds"] = round(time.time() - started, 1)
    return payload


def gate(payload: dict) -> int:
    """Print each target against what was measured; 0 when all are met."""
    greedy = payload["results"]["greedy_slf_reversal"]
    worst = max(greedy["rows"], key=lambda r: r["applies"] / r["n"])
    print(
        f"  greedy SLF probes: at most {worst['applies'] / worst['n']:.2f} applies "
        f"per node (n={worst['n']}: {worst['applies']} applies, "
        f"{worst['reverts']} reverts; bound {MAX_PROBES_PER_NODE}, "
        f"meets={greedy['meets_probe_bound']})"
    )
    live = payload["results"]["request_cost_vs_live_oracles"]
    print(
        "  request cost vs live oracles: "
        + ", ".join(
            f"{row['live_oracles']}: {row['request_us']}us" for row in live["rows"]
        )
        + f" (ratio {live['cost_ratio_at_1000']}, bound "
        f"{MAX_LIVE_ORACLE_COST_RATIO}, meets={live['meets_target']})"
    )
    print(
        "  OracleStats read per request vs live oracles: "
        + ", ".join(
            f"{row['live_oracles']}: {row['stats_read']}" for row in live["rows"]
        )
        + f" (equal and nonzero, meets={live['meets_count_target']})"
    )
    scaling = payload["results"]["oracle_scaling"]
    print(
        "  greedy SLF search+verify: "
        + ", ".join(
            f"n={row['n']}: {(row['greedy_slf_s'] + row['greedy_verify_s']) * 1e3:.1f}ms"
            for row in scaling["rows"]
        )
        + f" (2000/1000 ratio {scaling['doubling_cost_ratio']}, bound "
        f"{MAX_DOUBLING_COST_RATIO})"
    )
    print(
        "  Peacock RLF+blackhole verify: "
        + ", ".join(
            f"n={row['n']}: {row['peacock_verify_s'] * 1e3:.2f}ms"
            for row in scaling["rows"]
        )
        + f" (2000/1000 ratio {scaling['peacock_verify_doubling_ratio']}, bound "
        f"{MAX_DOUBLING_COST_RATIO})"
    )
    print(
        "  Peacock search, order labels written per node: "
        + ", ".join(
            f"n={row['n']}: {row['peacock_labels_per_node']}"
            for row in scaling["rows"]
        )
        + f" (bound {MAX_PEACOCK_LABELS_PER_NODE}; ratios and labels "
        f"meet={scaling['meets_target']})"
    )
    met = (
        greedy["meets_probe_bound"]
        and live["meets_target"]
        and live["meets_count_target"]
        and scaling["meets_target"]
    )
    return 0 if met else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-long subset: stop the greedy-SLF ladder at n=1000",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = measure(args.quick)
    write(payload, args.out)
    return gate(payload)


if __name__ == "__main__":
    sys.exit(main())
