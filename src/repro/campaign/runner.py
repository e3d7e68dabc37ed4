"""The campaign execution engine.

:class:`CampaignRunner` expands a :class:`~repro.campaign.spec.CampaignSpec`
into cells, skips cells already present in the run directory (resume),
shards the remainder over a :mod:`multiprocessing` pool, and streams
results into the :class:`~repro.campaign.store.RunStore`.

Determinism contract: cell *records* contain only seed-derived fields
(instance shape, schedule rounds/touches, verification verdict, error
class) -- never wall-clock -- and are written in canonical cell order even
when workers finish out of order (``Pool.imap`` preserves input order), so
``results.jsonl`` is bit-identical across worker counts.  Wall-clock goes
to the ``timings.jsonl`` sidecar.

Every cell is fault-isolated: scheduler bugs, infeasible property
combinations, and per-cell timeouts become ``status`` values in the
record instead of killing the campaign.  ``timeout_s`` is the polled
per-thread deadline of :mod:`repro.core.deadline`, so it holds on
whichever thread runs the cell -- the serial loop, a pool worker, a fabric
worker thread or a REST handler -- and stops search, verification and
churn planning at points that leave the cached unit and its oracles
intact for the next cell; ``mem_limit_mb`` / ``cpu_limit_s``
(:func:`resource_guard`) are the rlimit backstop for code that never
polls, such as a family builder.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Mapping

try:  # POSIX-only; Windows runs cells unguarded
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

from repro.errors import (
    InfeasibleUpdateError,
    ReproError,
    ScheduleTimeoutError,
)
from repro.obs import trace as obs
from repro.campaign.families import build_unit
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunStore
from repro.core.api import ScheduleRequest, execute_request, time_limit
from repro.core.registry import parse_properties, resolve_scheduler


#: Per-worker cache of built work units, keyed by the seed-derived cell
#: identity.  A campaign sweeps the same instance across several
#: schedulers (one cell each); sharing the problem *object* between those
#: cells keeps every per-problem cache warm -- the canonical node↔bit
#: index, the kind/next-hop tables, and the SafetyOracles (with their
#: Pearce-Kelly state and verdict memos) that
#: :func:`repro.core.oracle.oracle_for` hangs off the problem, which owns
#: them: a unit this cache evicts is freed, oracles and all, once no cell
#: holds it.  Bounded FIFO so long campaigns do not accumulate oracle
#: memos without limit.
#: Thread-local because the cached oracles are mutable and unsynchronized
#: (the REST service can run inline campaigns from concurrent handler
#: threads); pool workers are separate processes and unaffected.
_UNIT_CACHE_LIMIT = 32
_UNIT_CACHE_LOCAL = threading.local()


def _unit_cache() -> dict:
    cache = getattr(_UNIT_CACHE_LOCAL, "units", None)
    if cache is None:
        cache = _UNIT_CACHE_LOCAL.units = {}
    return cache


def _cached_unit(family: str, size: int, params, seed: int):
    cache = _unit_cache()
    key = (family, size, json.dumps(params, sort_keys=True, default=str), seed)
    unit = cache.get(key)
    if unit is None:
        with obs.span("campaign.build_unit", family=family, size=size):
            unit = build_unit(family, size, params, seed)
        while len(cache) >= _UNIT_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = unit
    return unit


def _truncate(text: str, limit: int = 300) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def new_record(
    payload: Mapping[str, Any], status: str = "ok", detail: str | None = None
) -> dict:
    """The result record of one cell before (or instead of) a run: what
    ``run_cell`` fills in, and what the fabric coordinator writes for a
    cell it gives up on."""
    return {
        "cell": payload["index"],
        "id": payload["cell_id"],
        "family": payload["family"],
        "size": payload["size"],
        "repeat": payload["repeat"],
        "seed": payload["seed"],
        "scheduler": payload["scheduler"],
        "status": status,
        "rounds": None,
        "touches": None,
        "verified": None,
        "detail": None if detail is None else _truncate(detail),
    }


def _vm_size_bytes() -> int | None:
    """Current virtual-memory size of this process (linux procfs)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def peak_rss_kb() -> int | None:
    """Process-lifetime peak resident set size in KiB (None off-POSIX)."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on linux
        peak //= 1024
    return int(peak)


#: The largest limit ``setrlimit`` takes; RLIM_INFINITY (all ones) is past it.
_RLIM_MAX = (1 << 63) - 1


def _rlimit(limit: float, hard: int) -> int | None:
    """``limit`` as a soft limit under ``hard``; ``None`` when no rlimit
    can express it, which is no limit at all."""
    if hard != _resource.RLIM_INFINITY:
        limit = min(limit, hard)
    return int(limit) if limit < _RLIM_MAX else None


@contextlib.contextmanager
def resource_guard(
    mem_limit_mb: float | None = None, cpu_limit_s: float | None = None
):
    """Cap one cell's address-space growth and CPU time via ``setrlimit``.

    The memory cap is *relative*: current VM size + ``mem_limit_mb``, so
    an oversized allocation raises a catchable, deterministic
    ``MemoryError`` inside the cell instead of inviting the host OOM
    killer -- the same failure whether the cell runs in the pool baseline
    or on any fabric worker.  The CPU cap arms ``SIGXCPU`` to raise
    :class:`~repro.errors.ScheduleTimeoutError` (main thread only; signal
    handlers cannot be installed elsewhere).  Both limits are restored on
    exit, and each guard degrades to a no-op where the platform refuses
    it (no procfs, no ``resource`` module, non-main thread) or the budget
    is past what an rlimit can hold.
    """
    restores: list[tuple[int, tuple[int, int]]] = []
    old_handler = None
    if _resource is not None and mem_limit_mb:
        current = _vm_size_bytes()
        soft, hard = _resource.getrlimit(_resource.RLIMIT_AS)
        budget = None if current is None else _rlimit(
            current + float(mem_limit_mb) * (1 << 20), hard)
        if budget is not None:
            try:
                _resource.setrlimit(_resource.RLIMIT_AS, (budget, hard))
                restores.append((_resource.RLIMIT_AS, (soft, hard)))
            except (ValueError, OSError):
                pass
    budget = None
    if (
        _resource is not None
        and cpu_limit_s
        and hasattr(signal, "SIGXCPU")
        and threading.current_thread() is threading.main_thread()
    ):
        soft, hard = _resource.getrlimit(_resource.RLIMIT_CPU)
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        budget = _rlimit(
            usage.ru_utime + usage.ru_stime + float(cpu_limit_s) + 1, hard)
    if budget is not None:

        def _on_xcpu(signum, frame):
            # unlike the polled deadline this lands anywhere, possibly
            # inside an oracle delta: no later cell may see these units
            _unit_cache().clear()
            raise ScheduleTimeoutError(f"cpu limit exceeded ({cpu_limit_s}s)")

        try:
            _resource.setrlimit(_resource.RLIMIT_CPU, (budget, hard))
            restores.append((_resource.RLIMIT_CPU, (soft, hard)))
            old_handler = signal.signal(signal.SIGXCPU, _on_xcpu)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        if old_handler is not None:
            signal.signal(signal.SIGXCPU, old_handler)
        for which, limits in restores:
            try:
                _resource.setrlimit(which, limits)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass


def _run_churn_cell(record, unit, scheduler, payload) -> None:
    """Drive a churn-trace unit through the online controller.

    The scheduler column selects the mode: a guarantee-free baseline
    (oneshot) runs unscheduled, everything else runs oracle-scheduled.
    ``rounds`` / ``touches`` map onto rounds issued / rule flips, and
    ``verified`` is the dataplane audit -- quiescent with zero transient
    violations (``None`` for the baseline, which promises nothing).
    """
    from repro.churn.controller import policy_for_scheduler, run_churn

    metrics = run_churn(unit.trace, policy_for_scheduler(scheduler))
    record["rounds"] = metrics.rounds_issued
    record["touches"] = metrics.flips
    if payload["verify"] and scheduler.guarantee:
        record["verified"] = (
            metrics.quiescent and metrics.transient_violations == 0
        )
    record["detail"] = _truncate(
        f"arrivals={metrics.arrivals} restorations={metrics.restorations} "
        f"replans={metrics.replans} violations={metrics.transient_violations} "
        f"peak_in_flight={metrics.peak_in_flight}"
    )


def run_cell(payload: Mapping[str, Any]) -> tuple[dict, dict]:
    """Execute one cell; returns ``(record, timing)``, never raises.

    Top-level so pool workers can unpickle it regardless of start method.
    """
    record = new_record(payload)
    started = time.perf_counter()
    api_wall_ms = 0.0
    oracle_totals: dict[str, int] = {}
    cell_span = obs.span(
        "campaign.cell",
        cell_id=payload["cell_id"],
        family=payload["family"],
        scheduler=payload["scheduler"],
    )
    cell_span.__enter__()
    try:
        scheduler = resolve_scheduler(payload["scheduler"])
        with time_limit(payload.get("timeout_s")), resource_guard(
            payload.get("mem_limit_mb"), payload.get("cpu_limit_s")
        ):
            unit = _cached_unit(
                payload["family"],
                payload["size"],
                payload["params"],
                payload["seed"],
            )
            active = [p for p in unit.problems if p.required_updates]
            if unit.trace is not None:
                _run_churn_cell(record, unit, scheduler, payload)
            elif scheduler.requires_waypoint and any(
                p.waypoint is None for p in active
            ):
                record["status"] = "unsupported"
                record["detail"] = f"{scheduler.name} requires a waypoint"
            elif not active:
                record["status"] = "noop"
                record["rounds"] = 0
                record["touches"] = 0
            else:
                rounds = 0
                touches = 0
                details: list[str] = []
                verified: bool | None = None
                # explicit spec properties win; otherwise the envelope
                # checks the scheduler against what it promises (a
                # guarantee-free baseline like oneshot verifies nothing)
                explicit = (
                    parse_properties("+".join(payload["properties"]))
                    if payload["properties"]
                    else None
                )
                for problem in active:
                    result = execute_request(ScheduleRequest(
                        problem=problem,
                        scheduler=scheduler.name,
                        include_cleanup=payload["cleanup"],
                        verify=payload["verify"],
                        properties=explicit,
                        # extra engine params (the fabric coordinator's
                        # timeout escalation injects a larger node_budget /
                        # time_limit_s on a re-leased cell)
                        params=payload.get("scheduler_params") or {},
                    ))
                    api_wall_ms += result.wall_ms
                    for key, value in result.oracle_stats.items():
                        oracle_totals[key] = oracle_totals.get(key, 0) + value
                    # isolated-batch merge semantics: rounds = max, touches = sum
                    rounds = max(rounds, result.schedule.n_rounds)
                    touches += result.schedule.total_updates()
                    if result.detail:
                        details.append(result.detail)
                    if result.verified is not None:
                        verified = (
                            result.verified
                            if verified is None
                            else verified and result.verified
                        )
                record["rounds"] = rounds
                record["touches"] = touches
                record["verified"] = verified
                if details:
                    record["detail"] = _truncate("; ".join(details))
    except ScheduleTimeoutError as exc:
        record["status"] = "timeout"
        # str(exc) distinguishes the wall-clock deadline from the CPU
        # rlimit (both deterministic given the same limits)
        record["detail"] = _truncate(str(exc))
        record["rounds"] = record["touches"] = record["verified"] = None
    except InfeasibleUpdateError as exc:
        record["status"] = "infeasible"
        record["detail"] = _truncate(str(exc))
    except ReproError as exc:
        record["status"] = "error"
        record["detail"] = _truncate(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        record["status"] = "error"
        record["detail"] = _truncate(f"{type(exc).__name__}: {exc}")
    cell_span.set_attrs(status=record["status"])
    cell_span.__exit__(None, None, None)
    timing = {
        "id": payload["cell_id"],
        "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
        # the envelope's own numbers, so pool timing sidecars and fabric
        # telemetry report identical per-cell figures
        "api_wall_ms": round(api_wall_ms, 3),
        # process-lifetime high-water mark at cell end; wall-clock-free
        # but machine-dependent, so it stays in the sidecar
        "peak_rss_kb": peak_rss_kb(),
        "oracle": oracle_totals,
    }
    return record, timing


class CampaignRunner:
    """Expand, shard, execute, and persist one campaign."""

    def __init__(
        self,
        spec: CampaignSpec,
        root: str = "campaign-runs",
        workers: int = 1,
        store: RunStore | None = None,
    ) -> None:
        self.spec = spec
        self.workers = max(1, int(workers))
        self.store = store or RunStore(root, spec.campaign_id)

    def run(
        self, progress: Callable[[dict, int, int], None] | None = None
    ) -> dict:
        """Execute all pending cells; returns the final status dict.

        ``progress(record, done, total)`` is invoked after every persisted
        cell.  Already-completed cells (from a previous, possibly
        interrupted, run of the same spec) are skipped.
        """
        cells = self.spec.expand()
        self.store.initialize(self.spec, n_cells=len(cells))
        done_ids = self.store.completed_ids()
        pending = [cell for cell in cells if cell.cell_id not in done_ids]
        payloads = [cell.payload() for cell in pending]
        total = len(cells)
        done = total - len(pending)
        try:
            if self.workers == 1 or not payloads:
                results = map(run_cell, payloads)
                self._drain(results, progress, done, total)
            else:
                chunksize = max(1, len(payloads) // (self.workers * 8))
                with multiprocessing.Pool(self.workers) as pool:
                    results = pool.imap(run_cell, payloads, chunksize=chunksize)
                    self._drain(results, progress, done, total)
        finally:
            self.store.close()
        return self.store.status()

    def _drain(self, results, progress, done: int, total: int) -> None:
        for record, timing in results:
            self.store.append(record, timing)
            done += 1
            if progress is not None:
                progress(record, done, total)
