"""Measurement collection and report rendering."""

from repro.metrics.collector import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsCollector,
    global_collector,
    percentile,
    reset_global_collector,
)
from repro.metrics.exposition import render_prometheus
from repro.metrics.report import ascii_table, to_csv, to_json

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsCollector",
    "ascii_table",
    "global_collector",
    "percentile",
    "render_prometheus",
    "reset_global_collector",
    "to_csv",
    "to_json",
]
