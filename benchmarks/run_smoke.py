"""Benchmark smoke runner: a seconds-long perf subset with JSON artifacts.

Runs the quick modes of :mod:`benchmarks.bench_perf_oracle` (greedy-SLF
probe counts, what doubling a many-round instance costs, the order labels
Peacock's search writes per node, request cost vs live oracles,
``BENCH_oracle.json``) and
:mod:`benchmarks.bench_perf_exact` (the exact search past the old cap,
the wall of its two modes, the n=24 instances, the oracle misses,
singleton passes and nogood hits of two default-mode solves,
``BENCH_exact.json``).
Wired as ``make bench-smoke``; exit status is non-zero when any perf
target regresses, so it can gate CI.  The gates read what was just
measured; an artifact is rewritten only when ``src/`` has no uncommitted
change (:func:`_provenance.write`).

After both benchmarks the runner prints one table of what it measured
and rewrites the marker-delimited smoke section of
``benchmarks/results/tables.txt``, so the checked-in tables never go
stale.

The run is also a tracing-overhead guard: the core is instrumented with
:mod:`repro.obs` spans, and the perf gates in ``BENCH_oracle.json`` /
``BENCH_exact.json`` only stay meaningful if the *disabled* tracer is
effectively free.  The runner refuses to benchmark with tracing armed,
and fails if the no-op ``obs.span()`` path costs more than
``MAX_NOOP_SPAN_US`` per call.

Usage::

    PYTHONPATH=src python benchmarks/run_smoke.py [--oracle-out PATH] [--exact-out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import bench_perf_exact  # noqa: E402  (sibling import by path)
import bench_perf_oracle  # noqa: E402
from _provenance import write  # noqa: E402

TABLES_PATH = pathlib.Path(__file__).parent / "results" / "tables.txt"
SMOKE_BEGIN = "=== PERF smoke (auto-generated) ==="
SMOKE_END = "=== end PERF smoke ==="

#: Ceiling on the per-call cost of a *disabled* ``obs.span()``.  The
#: instrumented hot paths (oracle nogoods, bnb milestones) guard on
#: ``tracing_enabled()`` so this is the worst case they ever pay; the
#: real figure is well under a microsecond, the ceiling leaves room for
#: slow CI machines without letting a regression slide into the gates.
MAX_NOOP_SPAN_US = 25.0
NOOP_SPAN_CALLS = 20_000


def tracing_overhead_guard() -> list[str]:
    """Perf-gate preconditions for the instrumented core.

    Returns a list of failure strings (empty when the guard passes):
    tracing must be disarmed so the benchmark numbers measure the
    schedulers and not the sink, and the no-op span path the hot loops
    still traverse must be cheap enough to be invisible in the gates.
    """
    from repro.obs import span, tracing_enabled

    failures = []
    if tracing_enabled():
        failures.append(
            "tracing is enabled (REPRO_TRACE_DIR?) -- benchmark numbers "
            "would include sink overhead; disarm tracing before bench-smoke"
        )
        return failures
    # warm the no-op path, then time it
    for _ in range(1000):
        with span("bench.noop"):
            pass
    start = time.perf_counter()
    for _ in range(NOOP_SPAN_CALLS):
        with span("bench.noop", k=1):
            pass
    per_call_us = (time.perf_counter() - start) / NOOP_SPAN_CALLS * 1e6
    print(f"[run_smoke] disabled obs.span(): {per_call_us:.2f}us/call "
          f"(ceiling {MAX_NOOP_SPAN_US}us)")
    if per_call_us > MAX_NOOP_SPAN_US:
        failures.append(
            f"disabled obs.span() costs {per_call_us:.2f}us/call "
            f"(> {MAX_NOOP_SPAN_US}us) -- the no-op tracer would skew "
            "the perf gates"
        )
    return failures


def _fmt_ms(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def smoke_table(oracle_payload: dict, exact_payload: dict) -> str:
    """One row per measured case, with the gate it answers to."""
    from repro.metrics.report import ascii_table

    rows = []
    greedy = oracle_payload["results"]["greedy_slf_reversal"]
    bound = greedy["max_probes_per_node"]
    for row in greedy["rows"]:
        rows.append([
            f"greedy_slf(reversal-{row['n']})",
            _fmt_ms(row["oracle_s"] * 1000),
            f"{row['applies'] / row['n']:.2f} applies/node (<= {bound})",
        ])
    scaling = oracle_payload["results"]["oracle_scaling"]
    for row in scaling["rows"][1:]:
        rows.append([
            f"greedy_slf+verify(reversal-{row['n']})",
            _fmt_ms((row["greedy_slf_s"] + row["greedy_verify_s"]) * 1000),
            "" if row["n"] == 1000 else (
                f"{scaling['doubling_cost_ratio']}x reversal-1000 "
                f"(<= {scaling['max_doubling_cost_ratio']}x)"
            ),
        ])
    for row in scaling["rows"][1:]:
        rows.append([
            f"peacock verify rlf+blackhole(reversal-{row['n']})",
            _fmt_ms(row["peacock_verify_s"] * 1000),
            "" if row["n"] == 1000 else (
                f"{scaling['peacock_verify_doubling_ratio']}x reversal-1000 "
                f"(<= {scaling['max_doubling_cost_ratio']}x)"
            ),
        ])
    for row in scaling["rows"]:
        rows.append([
            f"peacock(reversal-{row['n']})",
            _fmt_ms(row["peacock_exact_s"] * 1000),
            f"{row['peacock_labels_per_node']:.2f} labels/node "
            f"(<= {scaling['max_peacock_labels_per_node']})",
        ])
    for row in exact_payload["results"]["cap_lift"]["rows"]:
        rows.append([
            f"exact {row['instance']} (iddfs)",
            _fmt_ms(row["seconds"] * 1000 if row["completed"] else None),
            f"{row['rounds']} rounds, {row['memo_misses']} oracle misses"
            if row["completed"] else row["error"],
        ])
    bnb = exact_payload["results"]["bnb"]
    rows.append([
        "exact clash-16 (slf) iddfs",
        _fmt_ms(bnb["clash16_iddfs_ms"]),
        "",
    ])
    rows.append([
        "exact clash-16 (slf) bnb",
        _fmt_ms(bnb["clash16_bnb_ms"]),
        "",
    ])
    for row in exact_payload["results"]["misses"]["rows"]:
        rows.append([
            f"exact {row['instance']} (default)",
            "-",
            f"{row['memo_misses']} oracle misses "
            f"(<= {row['max_memo_misses']}), {row['singleton_passes']} "
            f"singleton passes (<= {row['max_singleton_passes']}), "
            f"{row['nogood_hits']} nogood hits (<= {row['max_nogood_hits']})",
        ])
    for row in bnb["rows"]:
        rows.append([
            f"exact {row['instance']} (bnb)",
            _fmt_ms(row["seconds"] * 1000),
            "within budget" if row["within_budget"] else "OVER BUDGET",
        ])
    sha = (exact_payload.get("provenance") or {}).get("git_sha") or "unknown"
    return ascii_table(
        ["benchmark", "ms", "gate"],
        rows,
        title=f"bench-smoke @ {sha[:12]}",
    )


def rewrite_smoke_section(table: str) -> None:
    """Replace (or append) the smoke section of ``tables.txt``."""
    TABLES_PATH.parent.mkdir(parents=True, exist_ok=True)
    section = f"{SMOKE_BEGIN}\n{table}\n{SMOKE_END}\n"
    text = TABLES_PATH.read_text(encoding="utf-8") if TABLES_PATH.is_file() else ""
    if SMOKE_BEGIN in text and SMOKE_END in text:
        head, _, rest = text.partition(SMOKE_BEGIN)
        _, _, tail = rest.partition(SMOKE_END)
        text = head + section + tail.lstrip("\n")
    else:
        if text and not text.endswith("\n\n"):
            text += "\n"
        text += section
    TABLES_PATH.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--oracle-out", type=pathlib.Path, default=bench_perf_oracle.DEFAULT_OUT
    )
    parser.add_argument(
        "--exact-out", type=pathlib.Path, default=bench_perf_exact.DEFAULT_OUT
    )
    args = parser.parse_args(argv)
    guard_failures = tracing_overhead_guard()
    if guard_failures:
        for failure in guard_failures:
            print(f"FAIL: {failure}")
        return 1
    # no artifact is rewritten over a dirty src/: gate and tabulate what
    # was just measured, not what the files hold
    oracle_payload = bench_perf_oracle.measure(quick=True)
    write(oracle_payload, args.oracle_out)
    oracle_rc = bench_perf_oracle.gate(oracle_payload)
    exact_payload = bench_perf_exact.measure(quick=True)
    write(exact_payload, args.exact_out)
    exact_rc = bench_perf_exact.gate(exact_payload)
    table = smoke_table(oracle_payload, exact_payload)
    print(table)
    rewrite_smoke_section(table)
    print(f"[run_smoke] refreshed smoke section of {TABLES_PATH}")
    return oracle_rc or exact_rc


if __name__ == "__main__":
    sys.exit(main())
