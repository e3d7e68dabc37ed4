"""Churn smoke: the online controller must stay clean under churn.

Drives a small arrival-rate grid of fat-tree churn traces through the
online controller and gates on the subsystem's three contracts:

* **quiescence** -- every run settles every request (arrivals,
  cancellations, link-failure re-plans and restorations included);
* **safety** -- in scheduled mode the dataplane probe checker counts
  zero transient violations (waypoint bypasses, loops, blackholes),
  while the unscheduled one-shot baseline on the same traces shows a
  nonzero count (the gap is the paper's point);
* **determinism** -- two same-seed runs produce byte-identical metrics
  JSON;
* **planner cost** -- oracle applies per arrival over the scheduled
  grid (first runs) stay at most :data:`MAX_APPLIES_PER_ARRIVAL`.  The
  count is deterministic: it moves only when the planner probes more
  (10.39 with the unprobed refusals of ``_plan_round``, 18.81 without).

Non-zero exit on any miss, so it can gate CI (``make churn-smoke``).

Usage::

    PYTHONPATH=src python benchmarks/run_churn_smoke.py
"""

from __future__ import annotations

import json
import sys

from repro.churn import ChurnPolicy, generate_trace, run_churn
from repro.core.oracle import aggregate_stats

#: (rate_per_s, duration_ms) arrival grid; fat-tree k=4, seeds both used.
GRID = [(25.0, 300.0), (50.0, 300.0), (100.0, 300.0)]
SEEDS = [7, 11]
#: 10.39 measured, plus a 6 % margin
MAX_APPLIES_PER_ARRIVAL = 11.0


def metrics_bytes(seed: int, rate: float, duration: float, scheduled: bool) -> bytes:
    trace = generate_trace(
        "fat-tree", 4, seed, rate_per_s=rate, duration_ms=duration
    )
    metrics = run_churn(trace, ChurnPolicy(scheduled=scheduled))
    return json.dumps(metrics.to_dict(), sort_keys=True).encode("utf-8")


def main() -> int:
    failures = []
    baseline_violations = 0
    applies = arrivals = 0
    for seed in SEEDS:
        for rate, duration in GRID:
            name = f"fat-tree/4 seed={seed} rate={rate:g}/s"
            before = aggregate_stats().applies
            first = metrics_bytes(seed, rate, duration, scheduled=True)
            applies += aggregate_stats().applies - before
            second = metrics_bytes(seed, rate, duration, scheduled=True)
            if first != second:
                failures.append(f"{name}: same-seed runs differ")
            summary = json.loads(first)
            arrivals += summary["arrivals"]
            if not summary["quiescent"]:
                failures.append(f"{name}: did not reach quiescence")
            if summary["transient_violations"]:
                failures.append(
                    f"{name}: {summary['transient_violations']} transient "
                    "violations in scheduled mode"
                )
            print(
                f"{name}: arrivals={summary['arrivals']} "
                f"rounds={summary['rounds_issued']} replans={summary['replans']} "
                f"restorations={summary['restorations']} "
                f"violations={summary['transient_violations']} "
                f"ttq={summary['time_to_quiescence_ms']:.1f}ms"
            )
    applies_per_arrival = applies / arrivals
    print(
        f"oracle applies per arrival: {applies_per_arrival:.2f} "
        f"(gate {MAX_APPLIES_PER_ARRIVAL:g})"
    )
    if applies_per_arrival > MAX_APPLIES_PER_ARRIVAL:
        failures.append(
            f"{applies_per_arrival:.2f} oracle applies per arrival "
            f"(gate {MAX_APPLIES_PER_ARRIVAL:g}): the planner probes "
            "candidates it could refuse"
        )
    # the unscheduled baseline must show why scheduling exists
    for seed in SEEDS:
        rate, duration = GRID[1]
        unscheduled = json.loads(
            metrics_bytes(seed, rate, duration, scheduled=False)
        )
        if not unscheduled["quiescent"]:
            failures.append(f"baseline seed={seed}: did not reach quiescence")
        baseline_violations += unscheduled["transient_violations"]
    print(f"unscheduled baseline violations: {baseline_violations}")
    if baseline_violations == 0:
        failures.append("unscheduled baseline shows zero violations")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"churn-smoke OK: {len(SEEDS) * len(GRID)} scheduled runs quiescent, "
        "zero violations, byte-identical across same-seed runs; "
        f"baseline shows {baseline_violations} violations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
