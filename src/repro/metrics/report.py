"""Rendering measurement tables: ASCII for the console, CSV/JSON for files.

Every benchmark prints its paper-table analogue through
:func:`ascii_table`, so ``pytest benchmarks/ --benchmark-only`` output can
be compared against EXPERIMENTS.md at a glance.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Iterable, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render a boxed monospace table."""
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(char: str = "-", joint: str = "+") -> str:
        return joint + joint.join(char * (w + 2) for w in widths) + joint

    def render_row(cells: Sequence[str]) -> str:
        padded = (f" {cell.ljust(widths[i])} " for i, cell in enumerate(cells))
        return "|" + "|".join(padded) + "|"

    out = []
    if title:
        out.append(title)
    out.append(line())
    out.append(render_row(list(headers)))
    out.append(line("="))
    for row in formatted:
        out.append(render_row(row))
    out.append(line())
    return "\n".join(out)


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def to_json(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as a JSON list of objects."""
    records = [dict(zip(headers, row)) for row in rows]
    return json.dumps(records, indent=2, sort_keys=True)

