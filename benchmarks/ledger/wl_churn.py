"""``churn_online``: seeded churn traces driven to quiescence.

An op is one ``run_churn(trace, ChurnPolicy(scheduled=True))``: Poisson
arrivals, cancellations and link failures over 500 simulated ms at 100
arrivals/s, alternating a 6-ary fat-tree and a 48-node WAN.  Unlike the
one-shot schedulers, the controller keeps one long-lived oracle per update
and advances it by deltas, so this is the workload that times
``churn.controller`` and ``sim``.  Output check: every run is quiescent
with zero scheduled transient violations.
"""

from __future__ import annotations

import random

from repro.churn import ChurnPolicy, generate_trace, run_churn
from repro.core.oracle import aggregate_stats

from harness import Tracer, Workload, alternate, median, no_gc, paired_share

SHAPES = (("fat-tree", 6), ("wan", 48))
TRACES_PER_CYCLE = 48
RATE_PER_S = 100.0
DURATION_MS = 500.0


def _trace(index: int, seed: int):
    kind, size = SHAPES[index % len(SHAPES)]
    return generate_trace(
        kind, size, seed, rate_per_s=RATE_PER_S, duration_ms=DURATION_MS
    )


class ChurnOnline(Workload):
    name = "churn_online"
    expected = None  # invariants per run; later cycles must repeat the first

    def __init__(self, seed: int, scale: float, root) -> None:
        self.rng = random.Random(f"{self.name}-{seed}")
        count = max(2, round(TRACES_PER_CYCLE * scale))
        self.ops = [
            _trace(index, self.rng.getrandbits(32)) for index in range(count)
        ]
        self.policy = ChurnPolicy(scheduled=True)

    def warm_up(self) -> None:
        self.run_op(self.ops[0])

    def run_op(self, trace):
        return run_churn(trace, self.policy)

    def outcome(self, trace, metrics) -> dict:
        result = metrics.to_dict()
        del result["lifecycles"]  # per-request records dwarf the rest
        result["ok"] = metrics.quiescent and metrics.transient_violations == 0
        return result

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        pairs: list[tuple] = []  # (untraced, traced) run of each sampled op
        totals = dict.fromkeys(
            ("events", "rounds", "arrivals", "flips", "replans", "applies"), 0
        )
        for index in self.sampled_rounds(tracer, budget_s):
            trace = self.ops[index]
            found = {}

            def plain():
                with no_gc(), tracer.plain() as found["untraced"]:
                    metrics = run_churn(trace, self.policy)
                self.check(index, metrics)

            def traced():
                with no_gc():  # for the counters, so for both runs
                    before = aggregate_stats().applies
                    with tracer.span(
                        "churn.controller.run", op=f"{self.name}#{index}"
                    ) as found["traced"]:
                        found["metrics"] = run_churn(trace, self.policy)
                    totals["applies"] += aggregate_stats().applies - before

            alternate(len(pairs), plain, traced)
            metrics = found["metrics"]
            pairs.append((found["untraced"], found["traced"]))
            totals["events"] += len(trace.events)
            totals["rounds"] += metrics.rounds_issued
            totals["arrivals"] += metrics.arrivals
            totals["flips"] += metrics.flips
            totals["replans"] += metrics.replans
            with tracer.span("churn.traces.generate"):
                _trace(index, self.rng.getrandbits(32))
        wall = tracer.total("churn.controller.run")
        arrivals = totals["arrivals"]
        return {
            "churn.traces.generate_ms": tracer.p50("churn.traces.generate", 1e3),
            "churn.controller.events_per_s": totals["events"] / wall,
            "churn.controller.wall_us_per_round": wall / totals["rounds"] * 1e6,
            "churn.controller.rounds_per_update": totals["rounds"] / arrivals,
            "churn.controller.flips_per_update": totals["flips"] / arrivals,
            "churn.controller.replans_per_update": totals["replans"] / arrivals,
            "churn.controller.oracle_applies_per_update": totals["applies"] / arrivals,
            # run_churn is the one call the harness can span, so here
            # coverage is the traced run over the untraced one: 1 by design
            "trace.coverage": median(
                traced.seconds / plain.seconds for plain, traced in pairs),
            "trace.overhead_share": paired_share(pairs),
            "trace.sampled_ops": self.sample_size(),
        }
