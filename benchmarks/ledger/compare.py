"""Compare two result sets written by ``run.py`` (``--compare A B``).

A and B *agree* when, on every workload, every end-to-end metric of B is
no worse than A's by more than the metric's bound in ``BENCHMARK.json``,
the share of failed ops did not rise, and every exact counter and every
``outcome_digest`` is equal.  Verdict per end-to-end metric, from the
medians of each side's runs:

* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  within the bound, but either side's run-to-run spread
  is wider than the bound (or unknown: a side with one run), so "no
  change" cannot be told from noise -- unless every run of B reads better
  than every run of A (``better``);
* ``better`` / ``unchanged``  otherwise.

Exit status 0 when the sets agree (``unresolved`` rows are printed, not
failed), 1 when they do not.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys

SPEC_FILE = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer metrics that are counts or ratios of counts: they must repeat
#: exactly between two runs of the same code and seed.
EXACT_SUFFIXES = ("_per_op", "_per_req", "_per_cell", "_per_update", "_ratio")
EXACT_NAMES = frozenset({
    "campaign.fabric.coordinator.stale_submits",
    "trace.sampled_ops",
})


#: A reply body carries ``wall_ms`` digits and only the oracle counters
#: that moved, so its size wobbles by a few bytes between identical runs.
INEXACT_NAMES = frozenset({"rest.http_binding.bytes_in_per_req"})


def is_exact(name: str) -> bool:
    if name in INEXACT_NAMES:
        return False
    return name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four runs or more, the full range with fewer, and
    unknown (infinite) with one."""
    if len(values) < 2:
        return math.inf
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median in the worse direction)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    if worse_by > bound:
        return "worse", worse_by
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if max(spread(a), spread(b)) > bound:
        return ("better" if all_better else "unresolved"), worse_by
    return ("better" if worse_by < -bound else "unchanged"), worse_by


def compare(a: dict, b: dict, declared: dict) -> list[str]:
    """Print the table; returns the disagreements."""
    problems: list[str] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        print(f"== {name} ({len(left['runs'])} vs {len(right['runs'])} runs) ==")
        for metric in declared["end_to_end"]:
            key = metric["name"]
            values_a = [run["metrics"][key] for run in left["runs"]]
            values_b = [run["metrics"][key] for run in right["runs"]]
            word, change = verdict(
                values_a, values_b, metric["better"], metric["bound"]
            )
            print(
                f"  {key:<16} {statistics.median(values_a):>12.4f} -> "
                f"{statistics.median(values_b):>12.4f} {metric['unit']:<5} "
                f"{change:+7.1%} worse (bound {metric['bound']:.0%}, spread "
                f"{spread(values_a):.1%}/{spread(values_b):.1%})  {word}"
            )
            if word == "worse":
                problems.append(f"{name}: {key} worse by {change:.1%}")
        failed_a = max(run["failed"] / run["attempted"] for run in left["runs"])
        failed_b = max(run["failed"] / run["attempted"] for run in right["runs"])
        print(f"  {'failed_share':<16} {failed_a:>12.4f} -> {failed_b:>12.4f}")
        if failed_b > failed_a:
            problems.append(f"{name}: failed_share rose to {failed_b:.4f}")
        digests = {
            run["outcome_digest"] for run in left["runs"] + right["runs"]
        }
        if a.get("seed") == b.get("seed") and len(digests) != 1:
            problems.append(f"{name}: outcome_digest differs")
        layers_a, layers_b = left.get("per_layer", {}), right.get("per_layer", {})
        for key in sorted(set(layers_a) | set(layers_b)):
            if is_exact(key) and layers_a.get(key) != layers_b.get(key):
                problems.append(
                    f"{name}: counter {key} {layers_a.get(key)} != "
                    f"{layers_b.get(key)}"
                )
    return problems


def main(paths) -> int:
    a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in paths)
    declared = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    problems = compare(a, b, declared)
    for problem in problems:
        print(f"DISAGREE {problem}")
    print("sets agree" if not problems else f"{len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:3]))
