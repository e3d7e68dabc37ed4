"""Perf benchmark: the exact search on its target worst cases.

Four series go into ``BENCH_exact.json`` (the historical rows against
the frozenset BFS and the mask BFS are frozen in ``EXPERIMENTS.md``;
those engines no longer exist):

* **cap_lift** -- instances beyond the old ``DEFAULT_MAX_NODES = 12``
  cap: reversal n=16/18 and sawtooth-18-4 (15--17 required updates),
  plus a waypointed slalom row for the WPE property mix (its update
  count is constant at 4: only the nodes adjacent to the crossing ever
  switch), all settled by plain deepening, each row with the oracle
  misses (graph morphs) its solve cost;
* **warm_memo** -- a warm repeat against the shared int-keyed verdict
  memo;
* **bnb** -- the wall of the two modes of the one search on clash-16
  under SLF (plain deepening vs the incumbent short-cut; forced-chain
  pruning and nogoods in both), and the n=24 cap instances only the
  short-cut settles;
* **misses** -- deterministic counts: the oracle misses (graph morphs),
  the read-only singleton passes
  (:meth:`~repro.core.oracle.SafetyOracle.safe_singletons`) and the
  nogood hits (rounds a learned nogood refuted on a read) of a
  default-mode (plain deepening, nogoods learned) SLF solve of
  ``random_update_instance(16, seed=5)`` and of clash-16.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_exact.py [--quick] [--out PATH]

Acceptance targets (gated by the exit status, wired into
``make bench-smoke`` via ``benchmarks/run_smoke.py``):

* reversal n=16 (15 required updates, beyond the old cap) completes;
* in the default mode under SLF, random-16-5 costs at most 20 oracle
  misses and clash-16 at most 8 (counts, so they gate the same on any
  machine; a mode-vs-mode wall ratio stopped meaning anything once
  plain deepening pruned with the forced chains too), and each at most
  10 singleton passes (random-16-5 ran 86 while a state with one round
  left paid for a pass before asking what was already known), and
  random-16-5 at most 100 nogood hits, clash-16 at most 10 (83 and 0;
  random-16-5 read 262 while the round enumeration still read every
  candidate a learned nogood refutes);
* the clash-24 infeasibility proof and reversal-24 under RLF and SLF
  settle within the smoke budget.
"""

from __future__ import annotations

import argparse
import pathlib
import platform
import sys
import time

from _provenance import provenance, write
from repro.core.hardness import (
    crossing_clash_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.optimal import DEFAULT_MAX_NODES, minimal_round_schedule
from repro.core.oracle import SafetyOracle, clear_registry, oracle_for
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.errors import InfeasibleUpdateError
from repro.topology.random_graphs import random_update_instance

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_exact.json"

CAP_LIFT_BUDGET_S = 30.0
BNB_BUDGET_S = 30.0

#: (label, instance, most oracle misses, most singleton passes and most
#: nogood hits its default-mode SLF solve may cost)
MISSES_GATES = (
    ("random-16-5 (slf)",
     lambda: UpdateProblem(*random_update_instance(16, seed=5)[:2]), 20, 10, 100),
    ("clash-16 (slf)", lambda: crossing_clash_instance(16), 8, 10, 10),
)


def _time(fn, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_cap_lift(quick: bool) -> dict:
    """Instances beyond the old n=12 cap, settled by plain deepening."""
    cases = [
        ("reversal-16", reversal_instance(16), (Property.RLF,)),
        ("reversal-18", reversal_instance(18), (Property.RLF,)),
        ("sawtooth-18-4", sawtooth_instance(18, 4), (Property.RLF,)),
        (
            "slalom-8 (wpe+blackhole)",
            waypoint_slalom_instance(8),
            (Property.WPE, Property.BLACKHOLE),
        ),
    ]
    rows = []
    for label, problem, properties in cases:
        clear_registry()
        start = time.perf_counter()
        try:
            schedule = minimal_round_schedule(
                problem, properties, search="iddfs"
            )
        except Exception as exc:  # noqa: BLE001 - report, then fail the gate
            rows.append({
                "instance": label,
                "required_updates": len(problem.required_updates),
                "completed": False,
                "error": f"{type(exc).__name__}: {exc}",
            })
            continue
        rows.append({
            "instance": label,
            "required_updates": len(problem.required_updates),
            "completed": True,
            "rounds": schedule.n_rounds,
            "seconds": round(time.perf_counter() - start, 4),
            "memo_misses": oracle_for(problem, properties).stats.memo_misses,
        })
    n16 = rows[0]
    return {
        "description": (
            f"exact schedules past the old cap (DEFAULT_MAX_NODES is now "
            f"{DEFAULT_MAX_NODES}); gate: reversal-16 completes within "
            f"{CAP_LIFT_BUDGET_S}s"
        ),
        "rows": rows,
        "meets_target": bool(
            n16["completed"] and n16["seconds"] <= CAP_LIFT_BUDGET_S
        ),
    }


def bench_bnb(quick: bool) -> dict:
    """The bounds mode vs plain deepening, and the n=24 cap instances."""

    def settle(problem, properties, search):
        clear_registry()
        try:
            schedule = minimal_round_schedule(
                problem, properties, search=search
            )
        except InfeasibleUpdateError:
            return "infeasible"
        return schedule.n_rounds

    # --- clash-16 under SLF: the two modes, for information ------------
    clash16 = crossing_clash_instance(16)
    iddfs_s, iddfs_rounds = _time(
        lambda: settle(clash16, (Property.SLF,), "iddfs"),
        repeats=3 if quick else 5,
    )
    bnb_s, bnb_rounds = _time(
        lambda: settle(clash16, (Property.SLF,), "bnb"),
        repeats=5 if quick else 10,
    )
    assert iddfs_rounds == bnb_rounds == 3, "both modes must find the optimum"

    # --- worst cases only bnb settles inside the budget ----------------
    rows = []
    for label, problem, properties, expected in (
        ("clash-24 (wpe+slf)", crossing_clash_instance(24),
         (Property.WPE, Property.SLF), "infeasible"),
        ("reversal-24 (rlf)", reversal_instance(24), (Property.RLF,), 3),
        ("reversal-24 (slf)", reversal_instance(24), (Property.SLF,), 22),
    ):
        clear_registry()
        start = time.perf_counter()
        verdict = settle(problem, properties, "bnb")
        elapsed = time.perf_counter() - start
        rows.append({
            "instance": label,
            "required_updates": len(problem.required_updates),
            "result": verdict,
            "expected": expected,
            "seconds": round(elapsed, 4),
            "within_budget": bool(
                verdict == expected and elapsed <= BNB_BUDGET_S
            ),
        })
    return {
        "description": (
            "search='bnb' (incumbent short-cut) vs search='iddfs' on "
            "clash-16 under SLF, both pruning with the forced chains and "
            "learning nogoods (no gate), and the n=24 cap instances"
        ),
        "clash16_iddfs_ms": round(iddfs_s * 1000, 3),
        "clash16_bnb_ms": round(bnb_s * 1000, 3),
        "budget_seconds": BNB_BUDGET_S,
        "rows": rows,
        "meets_target": all(row["within_budget"] for row in rows),
    }


def bench_warm_memo() -> dict:
    """Warm repeat of the exact search against the int-keyed verdict memo."""
    problem = reversal_instance(12)
    properties = (Property.RLF,)
    clear_registry()
    cold_s, _ = _time(
        lambda: minimal_round_schedule(problem, properties), repeats=1
    )
    warm_s, _ = _time(
        lambda: minimal_round_schedule(problem, properties), repeats=3
    )
    oracle = oracle_for(problem, properties)
    return {
        "description": "repeat the exact search on a warm shared oracle memo",
        "cold_ms": round(cold_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "warm_speedup": round(cold_s / warm_s, 1),
        "memo_hits": oracle.stats.memo_hits,
        "memo_misses": oracle.stats.memo_misses,
    }


def _counting_passes(solve):
    """``solve()`` and the singleton passes it ran (the pass is
    read-only, so no oracle counter holds it)."""
    real = SafetyOracle.safe_singletons
    passes = 0

    def counted(oracle, updated_mask):
        nonlocal passes
        passes += 1
        return real(oracle, updated_mask)

    SafetyOracle.safe_singletons = counted
    try:
        return solve(), passes
    finally:
        SafetyOracle.safe_singletons = real


def bench_misses() -> dict:
    """The oracle misses and singleton passes of default-mode solves:
    deterministic counts."""
    properties = (Property.SLF,)
    rows = []
    for label, build, most, most_passes, most_hits in MISSES_GATES:
        problem = build()
        clear_registry()
        schedule, passes = _counting_passes(
            lambda: minimal_round_schedule(problem, properties)
        )
        stats = oracle_for(problem, properties).stats
        misses, hits = stats.memo_misses, stats.nogood_hits
        rows.append({
            "instance": label,
            "rounds": schedule.n_rounds,
            "memo_misses": misses,
            "max_memo_misses": most,
            "singleton_passes": passes,
            "max_singleton_passes": most_passes,
            "nogood_hits": hits,
            "max_nogood_hits": most_hits,
            "meets_target": (
                misses <= most and passes <= most_passes and hits <= most_hits
            ),
        })
    return {
        "description": (
            "oracle misses (graph morphs), singleton passes and nogood "
            "hits of default-mode SLF solves; gate: each row at most its "
            "max_memo_misses, max_singleton_passes and max_nogood_hits"
        ),
        "rows": rows,
        "meets_target": all(row["meets_target"] for row in rows),
    }


def measure(quick: bool) -> dict:
    """Run every section; returns the payload ``BENCH_exact.json`` holds."""
    started = time.time()
    payload = {
        "benchmark": "exact-search-perf",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "provenance": provenance(),
        "default_max_nodes": DEFAULT_MAX_NODES,
        "results": {},
    }
    print(f"[bench_perf_exact] mode={payload['mode']}")
    for name, fn in (
        ("cap_lift", lambda: bench_cap_lift(quick)),
        ("warm_memo", bench_warm_memo),
        ("bnb", lambda: bench_bnb(quick)),
        ("misses", bench_misses),
    ):
        section_start = time.time()
        payload["results"][name] = fn()
        print(f"  {name}: {time.time() - section_start:.1f}s")
    payload["wall_seconds"] = round(time.time() - started, 1)
    return payload


def gate(payload: dict) -> int:
    """Print each target against what was measured; 0 when all are met."""
    cap = payload["results"]["cap_lift"]
    bnb = payload["results"]["bnb"]
    misses = payload["results"]["misses"]
    print(
        f"  cap lift: {[r['instance'] for r in cap['rows'] if r['completed']]} "
        f"completed (meets={cap['meets_target']})"
    )
    print(
        f"  clash-16 (slf): iddfs {bnb['clash16_iddfs_ms']} ms, bnb "
        f"{bnb['clash16_bnb_ms']} ms; "
        f"{[r['instance'] for r in bnb['rows'] if r['within_budget']]} within "
        f"{BNB_BUDGET_S}s (meets={bnb['meets_target']})"
    )
    for row in misses["rows"]:
        print(
            f"  {row['instance']} default mode: {row['memo_misses']} oracle "
            f"misses (<= {row['max_memo_misses']}), {row['singleton_passes']} "
            f"singleton passes (<= {row['max_singleton_passes']}), "
            f"{row['nogood_hits']} nogood hits (<= {row['max_nogood_hits']}; "
            f"meets={row['meets_target']})"
        )
    met = (cap["meets_target"], bnb["meets_target"], misses["meets_target"])
    return 0 if all(met) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repeats, for make bench-smoke",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = measure(args.quick)
    write(payload, args.out)
    return gate(payload)


if __name__ == "__main__":
    sys.exit(main())
