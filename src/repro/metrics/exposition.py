"""Prometheus text exposition.

Renders counter families and histograms, read from their owners at
scrape time, into the Prometheus text format (version 0.0.4) so the REST
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
from typing import Iterable, Mapping

from repro.metrics.collector import Histogram

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
    lines: list[str], name: str, series: Mapping[tuple, float]
) -> None:
    metric = _metric_name(name)
    lines.append(f"# TYPE {metric} counter")
    for key in sorted(series):
        lines.append(f"{metric}{_labels(key)} {_format_value(series[key])}")


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
    counters: Mapping[str, Mapping[tuple, float]],
    histograms: Iterable[Histogram],
) -> str:
    """Render counter families and histograms in Prometheus text format.

    ``counters`` maps each family name to its series: a tuple of
    ``(label, value)`` pairs (``()`` for the one unlabelled series) ->
    the count.  A family gets one ``# TYPE`` line, then its series in
    label order.
    """
    lines: list[str] = []
    for name in sorted(counters):
        _render_counter(lines, name, counters[name])
    for histogram in sorted(histograms, key=lambda h: h.name):
        _render_histogram(lines, histogram)
    return "\n".join(lines) + "\n" if lines else ""
