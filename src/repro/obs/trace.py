"""Span-based tracing: the core primitives.

Design constraints, in order:

1. **Free when off.**  Every instrumentation site calls
   :func:`span`/:func:`event` unconditionally; when no sink is attached
   the call returns a shared no-op object and touches nothing else.  The
   scheduling hot loops (oracle queries, bnb expansion) are *not*
   per-call instrumented at all -- they surface through counter deltas
   attached to enclosing spans and through coarse milestone events.
2. **Zero dependencies.**  Standard library only; no imports from the
   rest of :mod:`repro`, so any layer may import this one.
3. **Process-tree friendly.**  Trace/span ids propagate via
   ``contextvars`` inside a process, via explicit context dicts (HTTP
   headers, see :mod:`repro.rest.http_binding`) across processes, and the
   ``REPRO_TRACE_DIR`` environment variable arms a per-process JSONL sink
   in every child a campaign fleet spawns.

A finished span becomes one JSON-compatible dict::

    {"kind": "span", "name": "api.execute_request", "trace": "…",
     "span": "…", "parent": "…" | None, "pid": 1234, "ts": 1699….,
     "dur_ms": 12.4, "status": "ok" | "error", "attrs": {…}}

Events are the same shape with ``kind="event"`` and no duration.  Sinks
receive finished records only -- a SIGKILLed process loses at most its
open spans, never a partial view of a closed one (the JSONL sink writes
one line per record and flushes it, mirroring the campaign store's
crash-tolerance conventions; readers skip a torn trailing line).
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Iterable, Mapping

#: (trace_id, span_id) of the active span, or None outside any trace.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_current", default=None
)

#: Environment variable naming a directory for per-process JSONL sinks.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class _NoopSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, name: str, value: Any) -> None:
        pass

    def set_attrs(
        self, attrs: Mapping[str, Any] | None = None, **kw: Any
    ) -> None:
        pass

    def end(self, status: str | None = None) -> None:
        pass

    @property
    def context(self) -> None:
        return None


_NOOP = _NoopSpan()


class Span:
    """One live span; ends (and is written to sinks) on ``__exit__``."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "_tracer", "_token", "_start", "_ended", "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict,
        trace_id: str,
        parent_id: str | None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self._tracer = tracer
        self._token = None
        self._ended = False
        self._start = time.monotonic()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False

    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = value

    def set_attrs(
        self, attrs: Mapping[str, Any] | None = None, **kw: Any
    ) -> None:
        if attrs:
            self.attrs.update(attrs)
        if kw:
            self.attrs.update(kw)

    @property
    def context(self) -> dict:
        """Propagation dict for the far side of an RPC (see
        :func:`attach_context`)."""
        return {"trace": self.trace_id, "parent": self.span_id}

    def end(self, status: str | None = None) -> None:
        """Finish the span explicitly (idempotent)."""
        if self._ended:
            return
        self._ended = True
        if status is not None:
            self.status = status
        duration_ms = (time.monotonic() - self._start) * 1000.0
        self._tracer._emit({
            "kind": "span",
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "pid": os.getpid(),
            "ts": time.time(),
            "dur_ms": round(duration_ms, 3),
            "status": self.status,
            "attrs": self.attrs,
        })


class RingBufferSink:
    """Keep the last ``capacity`` records in memory (tests, live views)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer: deque = deque(maxlen=capacity)

    def write(self, record: dict) -> None:
        self._buffer.append(record)

    def records(self) -> list[dict]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def close(self) -> None:
        pass


class JsonlSink:
    """Append finished records to a JSONL file, one flushed line each.

    Mirrors the campaign store's crash conventions: every record is a
    single ``write`` of one full line followed by a flush, so a killed
    process leaves at most one torn trailing line (which readers skip).
    Lines are not synced one by one; ``close`` fsyncs, so an orderly
    shutdown is durable.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle: io.TextIOWrapper | None = open(
            self.path, "a", encoding="utf-8"
        )

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


class Tracer:
    """A process-local tracer: span factory plus a list of sinks.

    ``enabled`` is simply "has at least one sink"; the :func:`span` fast
    path reads it once and bails to the shared no-op span.  Sinks must
    tolerate concurrent ``write`` calls (both shipped sinks do).
    """

    def __init__(self) -> None:
        self._sinks: list = []
        self.enabled = False

    # ------------------------------------------------------------------
    # sink management
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        self._sinks.append(sink)
        self.enabled = True

    def remove_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        self.enabled = bool(self._sinks)

    def sinks(self) -> list:
        return list(self._sinks)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
        self._sinks = []
        self.enabled = False

    def _emit(self, record: dict) -> None:
        for sink in self._sinks:
            sink.write(record)

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Start a span (``with tracer.span("x", key=...):``).

        Child of the current span when one is active; otherwise the root
        of a fresh trace.  Returns the shared no-op span when disabled.
        """
        if not self.enabled:
            return _NOOP
        current = _CURRENT.get()
        if current is None:
            return Span(self, name, attrs, _new_id(), None)
        return Span(self, name, attrs, current[0], current[1])

    def root_span(self, name: str, **attrs: Any):
        """Start a new trace regardless of any active span."""
        if not self.enabled:
            return _NOOP
        return Span(self, name, attrs, _new_id(), None)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event under the current trace."""
        if not self.enabled:
            return
        current = _CURRENT.get()
        self._emit({
            "kind": "event",
            "name": name,
            "trace": current[0] if current else None,
            "span": _new_id(),
            "parent": current[1] if current else None,
            "pid": os.getpid(),
            "ts": time.time(),
            "status": "ok",
            "attrs": attrs,
        })


# ---------------------------------------------------------------------------
# context propagation (works with or without tracing enabled)
# ---------------------------------------------------------------------------

def current_context() -> dict | None:
    """The active ``{"trace": …, "parent": …}``, or None outside a span."""
    current = _CURRENT.get()
    if current is None:
        return None
    return {"trace": current[0], "parent": current[1]}


def attach_context(context: Mapping[str, Any] | None):
    """Adopt a remote trace context (e.g. decoded from HTTP headers).

    Returns a token for :func:`detach_context`.  A None/empty context
    still returns a token (attaching "no trace"), so callers can
    attach/detach unconditionally.
    """
    if not context or not context.get("trace"):
        return _CURRENT.set(None)
    return _CURRENT.set((str(context["trace"]), context.get("parent")))


def detach_context(token) -> None:
    _CURRENT.reset(token)


# ---------------------------------------------------------------------------
# the process-global tracer
# ---------------------------------------------------------------------------

_GLOBAL: Tracer | None = None
_GLOBAL_LOCK = threading.Lock()


def global_tracer() -> Tracer:
    """The process-wide tracer (created on first use).

    Creation honors ``REPRO_TRACE_DIR``: when set, a JSONL sink writing
    ``trace-<pid>.jsonl`` under that directory is attached -- this is how
    spawned campaign workers inherit tracing without any plumbing.
    """
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                tracer = Tracer()
                directory = os.environ.get(TRACE_DIR_ENV)
                if directory:
                    tracer.add_sink(
                        JsonlSink(
                            os.path.join(
                                directory, f"trace-{os.getpid()}.jsonl"
                            )
                        )
                    )
                _GLOBAL = tracer
    return _GLOBAL


def reset_global_tracer() -> None:
    """Close and drop the process tracer (test isolation)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None:
            _GLOBAL.close()
        _GLOBAL = None


def configure_tracing(
    path: str | os.PathLike | None = None,
    directory: str | os.PathLike | None = None,
    ring: int | None = None,
) -> Tracer:
    """Attach sinks to the global tracer and return it.

    ``path`` appends to one JSONL file; ``directory`` picks a per-process
    ``trace-<pid>.jsonl`` inside it (safe for process fleets); ``ring``
    attaches an in-memory ring buffer of that capacity.
    """
    tracer = global_tracer()
    if directory is not None:
        path = os.path.join(str(directory), f"trace-{os.getpid()}.jsonl")
    if path is not None:
        tracer.add_sink(JsonlSink(path))
    if ring is not None:
        tracer.add_sink(RingBufferSink(ring))
    return tracer


def disable_tracing() -> None:
    """Close every sink of the global tracer (tracing goes no-op)."""
    global_tracer().close()


def tracing_enabled() -> bool:
    return global_tracer().enabled


def span(name: str, **attrs: Any):
    """Module-level convenience: a span on the global tracer.

    The first call creates the tracer (arming ``REPRO_TRACE_DIR`` if
    set); afterwards the disabled path is two attribute reads.
    """
    tracer = _GLOBAL
    if tracer is None:
        tracer = global_tracer()
    if not tracer.enabled:
        return _NOOP
    return tracer.span(name, **attrs)


def root_span(name: str, **attrs: Any):
    """Module-level convenience: a fresh trace on the global tracer."""
    tracer = _GLOBAL
    if tracer is None:
        tracer = global_tracer()
    if not tracer.enabled:
        return _NOOP
    return tracer.root_span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Module-level convenience: an event on the global tracer."""
    tracer = _GLOBAL
    if tracer is None:
        tracer = global_tracer()
    if tracer.enabled:
        tracer.event(name, **attrs)


def read_jsonl(path: str | os.PathLike) -> Iterable[dict]:
    """Yield records from one trace file, skipping torn/blank lines."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line of a killed process
            if isinstance(record, dict):
                yield record
