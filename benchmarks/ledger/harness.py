"""Measurement core of the perf ledger.

A workload is a fixed, seed-derived list of ops (one *cycle*).  The timed
pass runs whole cycles back to back as a closed loop with one client --
the next op is issued only when the previous one returned -- until the
requested number of seconds of timed wall has been spent.  Every op's
outcome is checked against the outcome computed in set-up; an op that
raises, is refused, or returns anything else counts as failed.

The traced pass is separate: :class:`Tracer` keeps spans in memory
(name, start, end, parent, op) around calls the *harness* makes into each
layer's public functions and writes them out when the run ends.

Both passes read their clocks through a :class:`Pacer`, which times a
small fixed kernel beside the work and reports every interval twice: as
clocked, and with its CPU-busy part rescaled to the reference host speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import statistics
import time
from typing import Any, Iterable

clock = time.perf_counter
cpu_clock = time.process_time  # user+sys of every thread of the process


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


median = statistics.median


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


def digest(outcomes: list) -> str:
    """sha256 over the canonical JSON of every op's deterministic result."""
    return hashlib.sha256(canonical(outcomes).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def no_gc():
    """Keep the collector out of a stretch of harness code.

    Round a call whose oracle counters are read: ``oracle_stats`` is a
    before/after difference over every *live* shared oracle, so a
    collection in between subtracts the counters of whatever it frees.
    Round the speed probe: its own garbage must not trigger a heap scan.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: What :func:`speed_probe` takes at reference speed: its median over the
#: 18 timed passes of a baseline set measured while the reference box (the
#: 2-core sandbox this benchmark was written on) was in a quiet phase, so
#: that there a rescaled time reads like the clocked one.  It is the unit
#: of every committed time: change it only together with ``baseline.json``.
PROBE_NOMINAL_S = 0.0056
#: Timed seconds between two probes.
PROBE_EVERY_S = 0.2


def speed_probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The sandbox's cores change speed by up to 1.7x in phases of seconds to
    minutes (a busy sibling hyperthread: ``steal`` stays near zero and CPU
    time stretches with wall).  The kernel does what the program does --
    dict and list traffic, small allocations, calls -- over a working set
    of a few hundred KiB, so it stretches by the same factor without
    flushing the program's data out of the cache.
    """
    with no_gc():
        started = clock()
        table: dict[int, int] = {}
        total = 0
        for i in range(24000):
            table[i & 2047] = i
            total += table.get((i * 7) & 2047, 1)
        for _ in range(4):
            ordered = sorted((i * 37) % 1009 for i in range(3000))
            boxes = [{"a": i, "b": [i]} for i in range(1500)]
            total += ordered[0] + len(boxes)
        return clock() - started


class Pacer:
    """A wall clock and a process-CPU clock with the host's speed beside
    them.

    ``pace()`` runs a speed probe when the last one is ``PROBE_EVERY_S``
    old; call it between ops, never inside one.  ``stamp()`` reads both
    clocks with the time spent in probes taken out, so an interval between
    two stamps is the work's own.  ``fair()`` turns such an interval into
    *seconds at reference speed*: its CPU-busy part divided by the host
    slowdown the probes round it saw, its waiting part (wall
    minus process CPU: disk, sleeps) left as clocked -- a slower core does
    not make an ``fsync`` or a poll sleep longer.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.edges: list[tuple] = []  # the stamp right before each probe
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self.probe()

    def probe(self) -> None:
        self.edges.append(self.stamp())
        wall0, cpu0 = clock(), cpu_clock()
        self.probes.append(speed_probe())
        self.last = clock()
        self.paused_wall += self.last - wall0
        self.paused_cpu += cpu_clock() - cpu0

    def pace(self) -> None:
        if clock() - self.last >= PROBE_EVERY_S:
            self.probe()

    def stamp(self) -> tuple[float, float, int]:
        return (
            clock() - self.paused_wall,
            cpu_clock() - self.paused_cpu,
            len(self.probes),
        )

    def slowdown(self, since: tuple, until: tuple) -> float:
        """Host slowdown (1.0 = reference speed) round an interval: the
        median of the two probes before it, any inside it and -- once
        they ran -- the two after it.  A phase of the host lasts seconds
        and moves the median; a probe that met an interrupt does not."""
        around = self.probes[max(0, since[2] - 2): until[2] + 2]
        return median(around) / PROBE_NOMINAL_S

    def fair(self, since: tuple, until: tuple) -> tuple[float, float, float, float]:
        """(wall, cpu, wall at reference speed, cpu at reference speed)."""
        wall = until[0] - since[0]
        busy = min(until[1] - since[1], wall)
        fair_busy = busy / self.slowdown(since, until)
        return wall, busy, wall - busy + fair_busy, fair_busy

    def fair_sum(self, since: tuple, until: tuple) -> tuple[float, float, float, float]:
        """``fair`` of a long interval, probe segment by probe segment, so
        that each stretch is rescaled by the speed it ran at."""
        inside = [e for e in self.edges if since[0] < e[0] < until[0]]
        # a segment that starts at a probe has that probe before it
        starts = [since] + [(wall, busy, n + 1) for wall, busy, n in inside]
        parts = [self.fair(a, b) for a, b in zip(starts, inside + [until])]
        return tuple(sum(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Plain:
    """Two stamps round a call and nothing else: how the traced pass
    times the *untraced* twin of a spanned call."""

    __slots__ = ("pacer", "since", "until")

    def __init__(self, pacer: Pacer) -> None:
        self.pacer = pacer

    def __enter__(self) -> "Plain":
        self.since = self.pacer.stamp()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.until = self.pacer.stamp()
        return False

    @property
    def seconds(self) -> float:
        """Busy time at reference speed.  Read it when the traced pass is
        over: until the next probe ran, only the one before the call
        vouches for the host's speed."""
        return self.pacer.fair(self.since, self.until)[2]

    @property
    def cpu_seconds(self) -> float:
        """The process-CPU part of ``seconds``."""
        return self.pacer.fair(self.since, self.until)[3]


class Span(Plain):
    """One recorded call.  Bookkeeping sits outside ``since``..``until``."""

    __slots__ = ("tracer", "name", "op", "id", "parent")

    def __init__(self, tracer: "Tracer", name: str, op: str | None) -> None:
        self.pacer = tracer.pacer
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = len(tracer.spans)
        stack = tracer._stack
        if stack:
            parent = tracer.spans[stack[-1]]
            self.parent = parent.id
            if self.op is None:
                self.op = parent.op
        else:
            self.parent = None
        tracer.spans.append(self)
        stack.append(self.id)
        self.since = self.pacer.stamp()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.until = self.pacer.stamp()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span store; one per workload of a traced pass."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix  # span ids are unique across tracers
        self.pacer = Pacer()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, op: str | None = None) -> Span:
        return Span(self, name, op)

    def plain(self) -> Plain:
        return Plain(self.pacer)

    def add(self, name: str, since: tuple, until: tuple) -> None:
        """Record a call that was stamped by hand (a wrapped callback)."""
        span = Span(self, name, None)
        span.__enter__()
        span.__exit__()
        span.since, span.until = since, until

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def p50(self, name: str, scale: float = 1.0) -> float:
        """Median busy time of ``name`` (0.0 when it never ran)."""
        sample = self.seconds(name)
        return median(sample) * scale if sample else 0.0

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def write(self, path) -> None:
        """Append every span as one JSON line."""
        pacer = self.pacer
        with open(path, "a", encoding="utf-8") as handle:
            for s in self.spans:
                wall, busy, fair, _ = pacer.fair(s.since, s.until)
                handle.write(canonical({
                    "id": f"{self.prefix}:{s.id}",
                    "parent": None if s.parent is None
                    else f"{self.prefix}:{s.parent}",
                    "op": s.op, "name": s.name,
                    "start": s.since[0], "end": s.until[0],
                    "cpu_s": busy, "fair_s": fair,
                }) + "\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: The traced pass takes every fourth op of the timed pass's list.
SAMPLE_STRIDE = 4


class Cycle:
    """What one pass over the op list produced."""

    def __init__(self, pacer: Pacer) -> None:
        self.pacer = pacer
        self.latencies: list[float] = []  # per op, seconds as clocked
        self.fair: list[float] = []  # per op, seconds at reference speed
        self.outcomes: list[dict] = []
        self.wall_s = self.cpu_s = 0.0  # the whole cycle, as clocked
        self.fair_wall_s = self.fair_cpu_s = 0.0  # and at reference speed

    def add_op(self, since: tuple, until: tuple) -> tuple:
        found = self.pacer.fair(since, until)
        self.latencies.append(found[0])
        self.fair.append(found[2])
        return found

    def slowdown(self) -> float:
        return median(self.pacer.probes) / PROBE_NOMINAL_S


class Workload:
    """One workload: seeded ops, expected outcomes, a closed-loop cycle.

    Subclasses set ``ops`` and ``expected`` in ``__init__`` (set-up) and
    implement ``run_op``/``outcome``; ``expected[i]`` holds the fields of
    op ``i``'s outcome fixed in set-up -- an outcome passes when it is
    ``ok`` and agrees on every one of them.  ``expected = None`` means the
    first cycle's outcomes become the reference (every later cycle must
    reproduce them exactly).
    """

    name = ""
    ops: list = []
    expected: list | None = None
    #: ops between (untimed) full collections inside a cycle; see
    #: :func:`measure` for why the collector runs on the harness's clock
    collect_every = 32
    trace_failed = 0  # traced-pass ops whose outcome did not pass

    def check(self, index: int, raw) -> None:
        """Traced pass: verify one op's output like the timed pass does."""
        want = None if self.expected is None else self.expected[index]
        if not passes(self.outcome(self.ops[index], raw), want):
            self.trace_failed += 1

    def warm_up(self) -> None:
        """Untimed ops before the first timed cycle (lazy imports, first
        connections); default: the head of the op list."""
        for op in self.ops[: max(1, min(16, len(self.ops) // 8))]:
            self.run_op(op)

    def begin_cycle(self) -> None:
        """Untimed per-cycle preparation."""

    def run_op(self, op):
        raise NotImplementedError

    def outcome(self, op, raw) -> dict:
        """Deterministic result fields of one op, with an ``ok`` flag."""
        raise NotImplementedError

    def run_cycle(self) -> "Cycle":
        """Run every op once, stamping wall and process CPU round each."""
        pacer = Pacer()
        cycle = Cycle(pacer)
        run_op, stamp = self.run_op, pacer.stamp
        raws = []
        stamps = []
        for position, op in enumerate(self.ops):
            if position % self.collect_every == 0:
                gc.collect()
            pacer.pace()
            since = stamp()
            try:
                raw = run_op(op)
            except Exception as exc:  # noqa: BLE001 - a failed op is a datum
                raw = exc
            stamps.append((since, stamp()))
            raws.append(raw)
        pacer.probe()
        # a closed loop has no think time: the cycle is the sum of its ops
        for since, until in stamps:
            wall, busy, fair_wall, fair_busy = cycle.add_op(since, until)
            cycle.wall_s += wall
            cycle.cpu_s += busy
            cycle.fair_wall_s += fair_wall
            cycle.fair_cpu_s += fair_busy
        # outcomes are extracted after the loop so that parsing a reply
        # is charged to neither the op nor the cycle
        for op, raw in zip(self.ops, raws):
            if isinstance(raw, Exception):
                cycle.outcomes.append({"ok": False, "error": type(raw).__name__})
            else:
                cycle.outcomes.append(self.outcome(op, raw))
        return cycle

    def end_cycle(self) -> int:
        """Untimed whole-cycle output check; returns ops it fails."""
        return 0

    def close(self) -> None:
        """Stop servers and threads, release files."""

    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        """The traced pass: per-layer metrics of this workload."""
        raise NotImplementedError

    def sampled_rounds(self, tracer: Tracer, budget_s: float):
        """Indices of every ``SAMPLE_STRIDE``-th op, in whole rounds: one
        round at least, more while the budget lasts.  Whole rounds keep
        per-op counter averages exactly equal whatever the machine's
        speed.  Between samples the heap is collected as often as the
        timed pass collects it and the host's speed is probed."""
        deadline = clock() + budget_s
        while True:
            for index in range(0, len(self.ops), SAMPLE_STRIDE):
                if index % self.collect_every == 0:
                    gc.collect()
                tracer.pacer.pace()
                yield index
            if clock() >= deadline:
                tracer.pacer.probe()
                return

    def sample_size(self) -> float:
        """Ops in one traced round (``trace.sampled_ops``)."""
        return float(len(range(0, len(self.ops), SAMPLE_STRIDE)))


def alternate(turn: int, first, second) -> None:
    """Call both, swapping the order on odd turns, so that neither the
    traced nor the untraced copy of an op always runs second (warm)."""
    if turn % 2:
        second()
        first()
    else:
        first()
        second()


def paired_share(pairs: Iterable[tuple[Plain, Plain]]) -> float:
    """``trace.overhead_share``: median over (untraced, traced) runs of
    one op of (traced - untraced) / untraced.

    The two runs of a pair are back to back, so the host's phases cancel
    inside a pair instead of between two medians.  The difference is
    taken in process CPU -- spans cost CPU, and what an op waits for
    (disk, sleeps) is the same on both sides, only noisier -- and set
    against the untraced run's whole latency.
    """
    return median(
        (traced.cpu_seconds - plain.cpu_seconds) / plain.seconds
        for plain, traced in pairs
    )


def passes(outcome: dict, expected: dict | None) -> bool:
    if not outcome.get("ok"):
        return False
    if expected is None:
        return True
    return all(outcome.get(key) == value for key, value in expected.items())


def empty_loop_us(n_ops: int = 20000) -> float:
    """What the timed loop adds to one op's measured latency
    (``harness.overhead_us``): an empty op, clocked like a real one."""

    class _Empty(Workload):
        ops = [None] * n_ops
        collect_every = n_ops  # the loop is weighed, not the collector

        def run_op(self, op):
            return None

        def outcome(self, op, raw):
            return _OK

    empty = _Empty()
    empty.run_cycle()
    return empty.run_cycle().wall_s / n_ops * 1e6


_OK = {"ok": True}


def measure(workload: Workload, seconds: float) -> dict:
    """The timed pass: whole cycles until ``seconds`` of timed wall.

    Returns the end-to-end metrics (all but ``setup_s``) plus sample
    counts, the failure tally and the outcome digest.  Times are at
    reference speed (see :class:`Pacer`); ``info`` holds them as clocked
    (``raw_*``).  ``p50_ms``/``p90_ms`` are quantiles of every timed op of
    the run, all cycles pooled; ``ops_per_s`` and ``cpu_ms_per_op`` come
    from the median cycle, so that one stalled cycle cannot move them.
    """
    cycles: list[Cycle] = []
    attempted = failed = 0
    reference = workload.expected
    first_digest = None

    def clocked() -> list[float]:
        return [cycle.wall_s for cycle in cycles]

    # whole cycles, as many as bring the timed wall nearest to ``seconds``
    while not cycles or sum(clocked()) + median(clocked()) / 2 < seconds:
        workload.begin_cycle()
        # The collector runs on the harness's clock, not its own: a full
        # pass before the cycle and every ``collect_every`` ops (untimed);
        # the automatic collector stays on.  The schedulers leave
        # problem<->oracle cycles behind and core.api sums the counters
        # of every live shared oracle twice per request, so an op's cost
        # depends on how many ops ran since the last full pass -- and
        # when the collector makes one by itself no two runs agree on.
        gc.collect()
        cycle = workload.run_cycle()
        outcomes = cycle.outcomes
        if reference is None:
            reference = [
                {k: v for k, v in outcome.items() if k != "ok"}
                for outcome in outcomes
            ]
        bad = sum(
            1
            for outcome, want in zip(outcomes, reference)
            if not passes(outcome, want)
        )
        bad += len(reference) - len(outcomes)  # ops that never reported
        bad = max(bad, workload.end_cycle())
        attempted += len(reference)
        failed += bad
        if first_digest is None:
            first_digest = digest(outcomes)
        cycle.outcomes = []  # checked; the timings are what is kept
        cycles.append(cycle)
    n_ops = len(reference)
    pooled = [t for cycle in cycles for t in cycle.fair]
    raw_p50_us = quantile(
        [t for cycle in cycles for t in cycle.latencies], 0.50) * 1e6
    overhead_us = empty_loop_us()
    if overhead_us > 0.01 * raw_p50_us:
        raise RuntimeError(
            f"harness loop costs {overhead_us:.2f} us/op, over 1% of "
            f"{workload.name}'s p50 ({raw_p50_us:.1f} us)"
        )
    return {
        "metrics": {
            "ops_per_s": n_ops / median(c.fair_wall_s for c in cycles),
            "p50_ms": quantile(pooled, 0.50) * 1e3,
            "p90_ms": quantile(pooled, 0.90) * 1e3,
            "cpu_ms_per_op": median(c.fair_cpu_s for c in cycles) / n_ops * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "p99_ms": quantile(pooled, 0.99) * 1e3,
            "failed_share": failed / attempted,
            "harness.overhead_us": overhead_us,
            "host_slowdown": median(c.slowdown() for c in cycles),
            "probe_ms": median(
                p for c in cycles for p in c.pacer.probes) * 1e3,
            "raw_ops_per_s": n_ops / median(clocked()),
            "raw_p50_ms": raw_p50_us / 1e3,
            "raw_cpu_ms_per_op": median(c.cpu_s for c in cycles) / n_ops * 1e3,
        },
        "attempted": attempted,
        "failed": failed,
        "cycles": len(cycles),
        "ops_per_cycle": n_ops,
        "timed_ops": len(pooled),
        "timed_s": sum(clocked()),
        "outcome_digest": first_digest,
    }
