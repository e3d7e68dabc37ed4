"""Process metrics: monotonic counters and fixed-bucket histograms.

The collector is thread-safe: the fabric coordinator, worker heartbeat
threads, and REST handler threads all bump counters on the process-wide
collector concurrently, so every mutation and every read snapshot takes
the collector's lock.  Two kinds of instruments:

* **counters** are cheap monotonic tallies, optionally with a frozen
  label set (``collector.increment("fabric.retries", labels={"worker":
  "w1"})``);
* **histograms** bucket samples into fixed bounds at record time, so
  p50/p95/p99 estimates stay available without retaining samples --
  the right instrument for per-request latencies on long-lived services.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping


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
    Not itself locked; the owning collector serializes access.
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

    def as_dict(self) -> dict:
        data = {
            "name": self.name,
            "count": self.total,
            "sum": round(self.sum, 6),
        }
        if self.total:
            data.update(
                p50=round(self.quantile(0.50), 6),
                p95=round(self.quantile(0.95), 6),
                p99=round(self.quantile(0.99), 6),
            )
        return data

    def snapshot(self) -> "Histogram":
        clone = Histogram(self.name, self.bounds)
        clone.counts = list(self.counts)
        clone.total = self.total
        clone.sum = self.sum
        return clone


#: Process-wide collector used by long-lived components (e.g. the safety
#: oracle's hit/miss counters) that have no natural per-run collector.
_GLOBAL: "MetricsCollector | None" = None
_GLOBAL_LOCK = threading.Lock()


def global_collector() -> "MetricsCollector":
    """The process-wide :class:`MetricsCollector` (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = MetricsCollector()
    return _GLOBAL


def reset_global_collector() -> None:
    """Drop the process-wide collector (tests and benchmark isolation)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None


def _label_key(labels: Mapping[str, str] | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class MetricsCollector:
    """Monotonic counters and fixed-bucket histograms.

    Counters are cheap tallies (lease grants, reclaims, retries) that
    only ever accumulate, optionally split by a small label set;
    histograms bucket samples at record time (see :class:`Histogram`).
    All methods are thread-safe.
    """

    counters: dict[str, float] = field(default_factory=dict)
    labeled: dict[str, dict[tuple, float]] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def increment(
        self,
        name: str,
        by: float = 1.0,
        labels: Mapping[str, str] | None = None,
    ) -> float:
        """Bump a monotonic counter; returns the new value.

        With ``labels``, the tally is kept per label set *and* folded
        into the plain counter of the same name, so unlabeled readers
        keep seeing totals.
        """
        by = float(by)
        with self._lock:
            value = self.counters.get(name, 0.0) + by
            self.counters[name] = value
            if labels:
                per_label = self.labeled.setdefault(name, {})
                key = _label_key(labels)
                per_label[key] = per_label.get(key, 0.0) + by
            return value

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> float:
        with self._lock:
            if labels:
                return self.labeled.get(name, {}).get(_label_key(labels), 0.0)
            return self.counters.get(name, 0.0)

    def labeled_counters(self, name: str) -> dict[tuple, float]:
        """Snapshot of one counter's per-label tallies."""
        with self._lock:
            return dict(self.labeled.get(name, {}))

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one sample into the named fixed-bucket histogram.

        ``buckets`` only takes effect when the histogram is first
        created; later calls reuse the existing bounds.
        """
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(name, buckets)
            histogram.observe(value)

    def histogram(self, name: str) -> Histogram:
        """A consistent snapshot of one histogram."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                raise KeyError(name)
            return histogram.snapshot()
