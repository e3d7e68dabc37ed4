"""Prometheus text exposition for :class:`MetricsCollector`.

Renders the collector's counters, labeled counters and histograms into
the Prometheus text format (version 0.0.4) so the REST
binding can serve ``GET /metrics`` to a scraper or to ``curl``.  Only
the standard library is used; the format is simple enough that a
dependency would buy nothing.

Name mapping: every metric is prefixed ``repro_`` and characters
outside ``[a-zA-Z0-9_:]`` collapse to ``_`` (so the internal counter
``fabric.leases_granted`` is exposed as
``repro_fabric_leases_granted``).  Histograms become cumulative
``_bucket`` series the way Prometheus expects.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.metrics.collector import Histogram, MetricsCollector, global_collector

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro_"


def _metric_name(name: str) -> str:
    sanitized = _NAME_OK.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return _PREFIX + sanitized


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _render_counter(
    lines: list[str],
    name: str,
    total: float,
    labeled: Mapping[tuple, float],
) -> None:
    metric = _metric_name(name)
    lines.append(f"# TYPE {metric} counter")
    if labeled:
        for key in sorted(labeled):
            lines.append(
                f"{metric}{_labels(key)} {_format_value(labeled[key])}"
            )
    else:
        lines.append(f"{metric} {_format_value(total)}")


def _render_histogram(lines: list[str], histogram: Histogram) -> None:
    metric = _metric_name(histogram.name)
    lines.append(f"# TYPE {metric} histogram")
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        lines.append(
            f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
        )
    lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.total}')
    lines.append(f"{metric}_sum {_format_value(histogram.sum)}")
    lines.append(f"{metric}_count {histogram.total}")


def render_prometheus(
    collector: MetricsCollector | None = None,
    extra_counters: Mapping[str, float] | None = None,
) -> str:
    """Render a collector in Prometheus text format.

    ``collector`` defaults to the process-wide one.  ``extra_counters``
    lets callers splice in tallies kept outside the collector -- the
    ``/metrics`` handler passes the safety oracle's aggregate stats
    here so ``repro_oracle_*`` shows up without double-counting.
    """
    if collector is None:
        collector = global_collector()
    with collector._lock:
        counters = dict(collector.counters)
        labeled = {
            name: dict(per_label)
            for name, per_label in collector.labeled.items()
        }
        histograms = [h.snapshot() for h in collector.histograms.values()]

    lines: list[str] = []
    for name in sorted(counters):
        _render_counter(lines, name, counters[name], labeled.get(name, {}))
    if extra_counters:
        for name in sorted(extra_counters):
            if name in counters:
                continue
            _render_counter(lines, name, float(extra_counters[name]), {})
    for histogram in sorted(histograms, key=lambda h: h.name):
        _render_histogram(lines, histogram)
    return "\n".join(lines) + "\n" if lines else ""
