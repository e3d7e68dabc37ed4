"""Structured tracing and telemetry (``repro.obs``).

A zero-dependency span tracer threaded through the scheduler core, the
campaign engine, and the fabric: :mod:`repro.obs.trace` records spans and
events into pluggable sinks (in-memory ring buffer, JSONL files), and
:mod:`repro.obs.analysis` turns trace files back into per-phase time
breakdowns.

Tracing is off by default and the off path is a few attribute reads
that return one shared no-op span (``tests/obs/test_obs_trace.py`` holds
it to that), so the scheduling hot loops stay un-touched.  Enable it::

    from repro.obs import configure_tracing
    configure_tracing(directory="traces/")      # one JSONL file per process

or for whole process trees (campaign fleets spawn workers) via the
environment::

    REPRO_TRACE_DIR=traces/ repro campaign serve spec.json --local-workers 3

then aggregate with ``repro trace summarize traces/``.
"""

from repro.obs.trace import (
    JsonlSink,
    RingBufferSink,
    Span,
    Tracer,
    attach_context,
    configure_tracing,
    current_context,
    detach_context,
    disable_tracing,
    event,
    global_tracer,
    reset_global_tracer,
    root_span,
    span,
    tracing_enabled,
)
from repro.obs.analysis import load_trace, summarize_trace

__all__ = [
    "JsonlSink",
    "RingBufferSink",
    "Span",
    "Tracer",
    "attach_context",
    "configure_tracing",
    "current_context",
    "detach_context",
    "disable_tracing",
    "event",
    "global_tracer",
    "load_trace",
    "reset_global_tracer",
    "root_span",
    "span",
    "summarize_trace",
    "tracing_enabled",
]
