"""The fabric fault harness: what the fault tests, the smokes and their
spawned workers share.

Every fault rides a seam the fabric already has, so nothing in ``src/``
knows a fault plan exists:

* a ``run_cell_fn`` wrapper dies on a named cell, lies after ``k`` honest
  cells (before ``FabricWorker`` checksums the record, so the lie carries
  a matching checksum) or dies right after computing its ``k``-th cell;
* a client wrapper freezes heartbeats and drops, duplicates, delays or
  damages submissions (after the checksum: ``integrity`` travels beside
  the record);
* a :class:`~repro.campaign.fabric.Coordinator` subclass dies right after
  its ``n``-th accept is journaled, before it is flushed or acknowledged.

Faults are keyed on ordinals (cells computed, submit calls, heartbeats,
accepts), never on wall clock or randomness, so a scenario replays
identically.  Spawned workers die by SIGKILL; thread workers raise
:class:`WorkerDeath`.

The module also holds the two judges the smokes and tests apply to what a
fleet leaves behind: the per-cell trace lifecycle checker and
:func:`durable_cells`, which says which projection lines a power cut may
take.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.campaign.fabric import (
    Coordinator,
    FabricWorker,
    HttpFabricClient,
    LocalClient,
)
from repro.campaign.fabric import coordinator as fabric_coordinator, leases
from repro.campaign.fabric.journal import JOURNAL, SNAPSHOT
from repro.campaign.runner import run_cell
from repro.campaign.spec import payload_identity_hash
from repro.campaign.store import record_checksum


def fast_retries(monkeypatch) -> None:
    """The fault scenarios' retry timing: a lease's refreshes end 3 TTLs
    after its grant, and a failed cell waits 0.01 s doubling to 0.05 s."""
    monkeypatch.setattr(leases, "HARD_TTL_FACTOR", 3.0)
    monkeypatch.setattr(fabric_coordinator, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(fabric_coordinator, "BACKOFF_CAP_S", 0.05)


def sealed(payload, record) -> dict:
    """The ``integrity`` sidecar an honest worker attaches to ``record``,
    computed for the leased ``payload``."""
    return {
        "record_sha256": record_checksum(record),
        "cell_hash": payload_identity_hash(payload),
    }


# ---------------------------------------------------------------------------
# worker faults
# ---------------------------------------------------------------------------

class WorkerDeath(BaseException):
    """A thread worker's injected death.  Not an ``Exception``, so
    ``FabricWorker`` does not report it to the coordinator as a ``fail``."""


def _die(sigkill: bool, why: str) -> None:
    if sigkill:
        os.kill(os.getpid(), signal.SIGKILL)
    raise WorkerDeath(why)


@dataclass(frozen=True)
class Faults:
    """One worker's fault plan.

    ``kill_after_cells=k`` dies after computing the ``k``-th record and
    before submitting it: work done, coordinator unaware.
    ``die_on_cells`` dies before computing any of those cells (the poison
    cell).  ``lie_after_cells=k`` falsifies every record after the first
    ``k``.  ``freeze_heartbeats_after=n`` swallows every heartbeat after
    the ``n``-th.  The ``*_submits`` fields name 0-based submit-call
    ordinals to lose, send twice or bit-damage; ``delay_submits`` maps
    ordinals to seconds slept before the call.
    """

    kill_after_cells: int | None = None
    die_on_cells: tuple[str, ...] = ()
    lie_after_cells: int | None = None
    freeze_heartbeats_after: int | None = None
    drop_submits: tuple[int, ...] = ()
    duplicate_submits: tuple[int, ...] = ()
    corrupt_submits: tuple[int, ...] = ()
    delay_submits: dict[int, float] = field(default_factory=dict)


def lie(record) -> dict:
    """A plausible falsification: well-formed, and only a byte comparison
    against an honest re-run exposes it."""
    lied = dict(record)
    if isinstance(lied.get("rounds"), int):
        lied["rounds"] += 1
    else:
        lied["detail"] = f"{lied.get('detail') or ''}~"
    return lied


def corrupt(record) -> dict:
    """Wire damage: the checksum sent along no longer matches."""
    return {**record, "seed": int(record.get("seed") or 0) ^ 1}


def faulty_run_cell(faults: Faults, sigkill: bool):
    """``run_cell`` with ``faults``' deaths and lies."""
    computed = 0

    def run(payload):
        nonlocal computed
        if payload["cell_id"] in faults.die_on_cells:
            _die(sigkill, f"died on poison cell {payload['cell_id']}")
        record, timing = run_cell(payload)
        computed += 1
        if faults.kill_after_cells is not None \
                and computed >= faults.kill_after_cells:
            _die(sigkill, f"killed after computing cell #{computed}")
        if faults.lie_after_cells is not None \
                and computed > faults.lie_after_cells:
            record = lie(record)
        return record, timing

    return run


class FaultyClient:
    """A fabric client that swallows heartbeats and loses, repeats, delays
    or damages submissions on their way to ``inner``."""

    def __init__(self, inner, faults: Faults) -> None:
        self._inner = inner
        self.faults = faults
        self.heartbeats = 0
        self.submits = 0

    def __getattr__(self, verb):
        return getattr(self._inner, verb)

    def heartbeat(self, worker_id):
        frozen = self.faults.freeze_heartbeats_after
        if frozen is not None and self.heartbeats >= frozen:
            return {}
        self.heartbeats += 1
        return self._inner.heartbeat(worker_id)

    def submit(self, worker_id, lease_id, cell_id, record, timing, integrity):
        ordinal, faults = self.submits, self.faults
        self.submits += 1
        if ordinal in faults.delay_submits:
            time.sleep(faults.delay_submits[ordinal])
        if ordinal in faults.drop_submits:
            return {}
        if ordinal in faults.corrupt_submits:
            record = corrupt(record)
        args = (worker_id, lease_id, cell_id, record, timing, integrity)
        reply = self._inner.submit(*args)
        if ordinal in faults.duplicate_submits:
            self._inner.submit(*args)
        return reply


def faulty_worker(client, faults: Faults | None, *, sigkill: bool = False,
                  **options) -> FabricWorker:
    """A ``FabricWorker`` over ``client`` that suffers ``faults``."""
    if faults is None:
        return FabricWorker(client, **options)
    return FabricWorker(
        FaultyClient(client, faults),
        run_cell_fn=faulty_run_cell(faults, sigkill), **options,
    )


def faulty_worker_main(url: str, campaign_id: str, faults: Faults | None,
                       **options) -> dict:
    """A spawned worker's entry point: ``worker_main`` with a fault plan
    (``None`` for an honest worker), whose deaths are SIGKILLs."""
    client = HttpFabricClient(url, campaign_id)
    return faulty_worker(client, faults, sigkill=True, **options).run()


def run_local_fleet(coordinator, n_workers: int = 2,
                    faults: dict[int, Faults] | None = None) -> list[dict]:
    """Run ``n_workers`` thread workers over ``LocalClient`` to completion;
    ``faults`` maps worker ordinals to plans.  Returns each worker's
    summary, with ``died`` set when its plan killed it."""
    workers = [
        faulty_worker(LocalClient(coordinator), (faults or {}).get(i),
                      name=f"local{i}")
        for i in range(n_workers)
    ]
    summaries: list[dict] = [{} for _ in workers]

    def run(i: int) -> None:
        try:
            summaries[i] = {**workers[i].run(), "died": False}
        except WorkerDeath:
            summaries[i] = {"name": workers[i].name, "died": True,
                            "cells_done": workers[i].cells_done}

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(n_workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return summaries


# ---------------------------------------------------------------------------
# coordinator faults
# ---------------------------------------------------------------------------

def killed_after(accepts: int) -> type[Coordinator]:
    """A ``Coordinator`` that SIGKILLs its process right after its
    ``accepts``-th accept is journaled, before the accept is flushed or
    acknowledged: the window the write-ahead journal exists to cover."""

    class KilledAfter(Coordinator):
        accepted = 0

        def _after_accept(self, *args) -> None:
            self.accepted += 1
            if self.accepted >= accepts:
                os.kill(os.getpid(), signal.SIGKILL)
            super()._after_accept(*args)

    return KilledAfter


# ---------------------------------------------------------------------------
# what a power cut may take
# ---------------------------------------------------------------------------

#: Record kinds that settle a cell, i.e. write its projection line.
SETTLING = ("accept", "poison", "terminal")


def durable_cells(directory, cell_ids) -> set[str]:
    """Cells whose settlement survives in the journal or the snapshot.

    ``cell_ids`` is the campaign's expansion in order: the snapshot keeps
    the settled cells still buffered behind a lower index at its
    compaction, by index, and a later flush writes their lines after that
    compaction's sync.
    """
    settled = set()
    journal = os.path.join(directory, JOURNAL)
    if os.path.isfile(journal):
        with open(journal, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle
                       if line.endswith("\n")]  # not a torn last record
        settled.update(r["cell_id"] for r in records if r["kind"] in SETTLING)
    snapshot = os.path.join(directory, SNAPSHOT)
    if os.path.isfile(snapshot):
        with open(snapshot, encoding="utf-8") as handle:
            events = json.load(handle)["state"]["events"]
        settled.update(
            cell_ids[e["index"]] for e in events if e["kind"] in SETTLING
        )
    return settled


def durable_suffix(lines, durable) -> int:
    """Where the projection ``lines`` whose cells are ``durable`` begin; a
    power cut may take everything from there.  They must be a suffix."""
    flags = [json.loads(line)["id"] in durable for line in lines]
    keep = flags.index(True) if True in flags else len(lines)
    assert all(flags[keep:]), "durably settled cells are a suffix"
    return keep


# ---------------------------------------------------------------------------
# per-cell lifecycles from a merged fabric trace
# ---------------------------------------------------------------------------

#: trace event -> the ``CellLifecycle`` count it bumps
_TALLIED = {
    "fabric.lease_cell": "leases",
    "fabric.reclaim_cell": "reclaims",
    "fabric.retry_cell": "retries",
    "fabric.escalate_cell": "escalations",
    "fabric.fail_cell": "transient_failures",
    "fabric.terminal_error": "terminal_errors",
    "fabric.recovered_cell": "recovered",
}


@dataclass
class CellLifecycle:
    """Everything the trace says about one campaign cell."""

    cell_id: str
    leases: int = 0
    reclaims: int = 0
    retries: int = 0
    escalations: int = 0
    transient_failures: int = 0
    terminal_errors: int = 0
    accepted_submits: int = 0
    duplicate_submits: int = 0
    stale_submits: int = 0
    #: journal-backed re-admissions by a restarted coordinator; when the
    #: accept's ack (and its span) died with the old process, this event
    #: is the only trace of the settlement
    recovered: int = 0
    #: terminal status of each completed run span (``campaign.cell``)
    run_statuses: list = field(default_factory=list)
    #: trace ids of the run spans, for phase lookups
    run_traces: set = field(default_factory=set)
    #: trace ids of accepted coordinator-side submit spans
    accept_traces: set = field(default_factory=set)

    @property
    def complete(self) -> bool:
        """Leased at least once and folded exactly one terminal outcome."""
        settled = (
            self.accepted_submits == 1
            or self.terminal_errors == 1
            or (self.accepted_submits == 0 and self.recovered > 0)
        )
        return self.leases >= 1 and settled


def reconstruct_cell_lifecycles(records) -> dict[str, CellLifecycle]:
    """Stitch per-cell lifecycles out of merged fabric trace records."""
    cells: dict[str, CellLifecycle] = {}
    for record in records:
        attrs = record.get("attrs") or {}
        cell_id = attrs.get("cell_id")
        if not isinstance(cell_id, str):
            continue
        state = cells.setdefault(cell_id, CellLifecycle(cell_id=cell_id))
        name = record.get("name")
        if name in _TALLIED:
            setattr(state, _TALLIED[name], getattr(state, _TALLIED[name]) + 1)
        elif name == "fabric.submit":
            outcome = attrs.get("outcome")
            if outcome == "accepted":
                state.accepted_submits += 1
                if record.get("trace"):
                    state.accept_traces.add(record["trace"])
            elif outcome == "duplicate":
                state.duplicate_submits += 1
            if attrs.get("stale"):
                state.stale_submits += 1
        elif name == "campaign.cell" and record.get("kind") == "span":
            state.run_statuses.append(attrs.get("status"))
            if record.get("trace"):
                state.run_traces.add(record["trace"])
    return cells


def verify_lifecycles(records, expected_cells) -> list[str]:
    """Check every expected cell's lifecycle; returns problem strings.

    The contract checked (empty return = all good):

    * every expected cell was leased at least once and settled exactly
      once -- one accepted submit (duplicates and stales are fine, they
      are flagged no-ops), one terminal give-up record, or a
      journal-backed recovery (``fabric.recovered_cell``: the accept was
      durable but its span died unwritten with a crashed coordinator);
    * every settled-by-submit cell has at least one completed run span,
      and runs that ended ``ok`` contain schedule phases
      (``api.execute_request``) in their trace;
    * no accepted coordinator submit is an orphan: its trace must also
      contain the worker-side run or RPC spans it claims to continue
      (SIGKILLed workers lose open spans, but an *accepted* submit means
      the submitting worker lived to deliver it, so its trace survives).
    """
    records = list(records)
    cells = reconstruct_cell_lifecycles(records)
    spans_by_trace: dict[str, set] = {}
    phased: set = set()
    for record in records:
        trace = record.get("trace")
        if not trace:
            continue
        spans_by_trace.setdefault(trace, set()).add(record.get("name"))
        if record.get("kind") == "span" \
                and record.get("name") == "api.execute_request":
            phased.add(trace)

    problems: list[str] = []
    for cell_id in expected_cells:
        state = cells.get(cell_id)
        if state is None:
            problems.append(f"{cell_id}: no trace records at all")
            continue
        if state.leases < 1:
            problems.append(f"{cell_id}: never leased")
        if state.accepted_submits + state.terminal_errors == 0 \
                and state.recovered == 0:
            problems.append(f"{cell_id}: never settled (no accepted submit)")
        elif state.accepted_submits > 1:
            problems.append(
                f"{cell_id}: {state.accepted_submits} accepted submits "
                "(duplicate records folded?)"
            )
        if state.accepted_submits != 1:
            continue
        if not state.run_statuses:
            problems.append(f"{cell_id}: no completed run span")
        elif "ok" in state.run_statuses and not state.run_traces & phased:
            problems.append(f"{cell_id}: ok run without schedule phase spans")
        for trace in state.accept_traces:
            names = spans_by_trace.get(trace, set())
            if not names & {"fabric.rpc.submit", "fabric.cell",
                            "campaign.cell"}:
                problems.append(
                    f"{cell_id}: accepted submit trace {trace} has no "
                    "worker-side spans (orphaned)"
                )
    return problems
