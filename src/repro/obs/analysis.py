"""Trace analysis: per-phase breakdowns.

``repro trace summarize`` aggregates a trace (file or directory of
per-process files) into a per-span-name time table -- the profiling entry
point for "where do schedule computations spend their time".
"""

from __future__ import annotations

import os
import pathlib
from typing import Iterable, Mapping

from repro.obs.trace import read_jsonl


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read one trace file, or every ``*.jsonl`` in a directory.

    Torn trailing lines (SIGKILLed writers) are skipped, matching the
    sink's crash conventions.
    """
    target = pathlib.Path(path)
    if target.is_dir():
        records: list[dict] = []
        for child in sorted(target.glob("*.jsonl")):
            records.extend(read_jsonl(child))
        return records
    return list(read_jsonl(target))


# ---------------------------------------------------------------------------
# per-phase summary
# ---------------------------------------------------------------------------

def summarize_trace(records: Iterable[Mapping]) -> list[dict]:
    """Aggregate spans by name into a per-phase time breakdown.

    Returns rows sorted by total time (descending)::

        {"name", "count", "errors", "total_ms", "mean_ms",
         "p50_ms", "p95_ms", "max_ms"}

    Events are counted (``count``) with zero duration contribution only
    if a span of the same name never occurs; normally they are listed
    separately under their own names with ``total_ms`` 0.
    """
    from repro.metrics.collector import percentile

    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    events: dict[str, int] = {}
    for record in records:
        name = record.get("name")
        if not isinstance(name, str):
            continue
        if record.get("kind") == "span":
            durations.setdefault(name, []).append(
                float(record.get("dur_ms", 0.0))
            )
            if record.get("status") == "error":
                errors[name] = errors.get(name, 0) + 1
        elif record.get("kind") == "event":
            events[name] = events.get(name, 0) + 1
    rows = []
    for name, values in durations.items():
        values.sort()
        rows.append({
            "name": name,
            "count": len(values),
            "errors": errors.get(name, 0),
            "total_ms": round(sum(values), 3),
            "mean_ms": round(sum(values) / len(values), 3),
            "p50_ms": round(percentile(values, 50.0), 3),
            "p95_ms": round(percentile(values, 95.0), 3),
            "max_ms": round(values[-1], 3),
        })
    for name, count in events.items():
        if name in durations:
            continue
        rows.append({
            "name": name,
            "count": count,
            "errors": 0,
            "total_ms": 0.0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "max_ms": 0.0,
        })
    rows.sort(key=lambda row: (-row["total_ms"], row["name"]))
    return rows
