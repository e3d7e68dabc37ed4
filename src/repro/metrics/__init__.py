"""Percentiles, histograms, Prometheus exposition and report rendering."""

from repro.metrics.collector import DEFAULT_BUCKETS, Histogram, percentile
from repro.metrics.exposition import render_prometheus
from repro.metrics.report import ascii_table, to_csv, to_json

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "ascii_table",
    "percentile",
    "render_prometheus",
    "to_csv",
    "to_json",
]
