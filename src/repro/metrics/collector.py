"""Measurement primitives: percentiles and fixed-bucket histograms.

There is no process-wide collector.  Every number has one owner that
keeps it and one reader that renders it: the safety oracles count their
own work (:func:`repro.core.oracle.aggregate_stats`), each fabric
coordinator its counters and per-worker tallies, and
:func:`repro.core.api.execute_request` its two request histograms;
``GET /metrics`` reads each of them at scrape time.

A :class:`Histogram` buckets samples into fixed bounds at record time,
so p50/p95/p99 estimates stay available without retaining samples --
the right instrument for per-request latencies on long-lived services.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list.

    Matches ``statistics.quantiles(..., method="inclusive")`` at the cut
    points ``q = 100 * k / n`` (pinned by property tests).  NaN -- as the
    query or among the samples touched -- is rejected rather than
    silently propagated.
    """
    if not sorted_values:
        raise ValueError("empty series has no percentiles")
    if math.isnan(q):
        raise ValueError("percentile query must not be NaN")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        value = sorted_values[0]
        if math.isnan(value):
            raise ValueError("series contains NaN samples")
        return value
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    lo_value, hi_value = sorted_values[low], sorted_values[high]
    if math.isnan(lo_value) or math.isnan(hi_value):
        raise ValueError("series contains NaN samples")
    if fraction == 0.0 or lo_value == hi_value:
        # avoid inf * 0 = nan when a rank lands exactly on an
        # infinite sample
        return lo_value
    return lo_value * (1 - fraction) + hi_value * fraction


#: Default histogram bucket upper bounds -- log-spaced, tuned for
#: millisecond-scale latencies (schedule walls, RPC times).
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket histogram: percentile estimates without the samples.

    Buckets are upper bounds (ascending) plus an implicit ``+inf``
    overflow bucket.  Quantiles are estimated by linear interpolation
    inside the bucket containing the target rank -- exact enough for
    p50/p95/p99 dashboards, constant memory regardless of sample count.
    Not itself locked; its owner serializes access.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(
        self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {name!r} bounds must ascend")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} rejects NaN samples")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` (0..1) quantile from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else max(self.bounds[-1], self.sum / self.total)
                )
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.bounds[-1]

    def snapshot(self) -> "Histogram":
        clone = Histogram(self.name, self.bounds)
        clone.counts = list(self.counts)
        clone.total = self.total
        clone.sum = self.sum
        return clone
