"""The coordinator's durable state, and the one function that changes it.

Everything a restarted coordinator has to get back -- each cell's status,
retry and escalation budget, payload overrides, killers and verdicts, the
out-of-order flush buffer, the audit candidate sets and the quarantine set
-- lives in :class:`FabricState` and changes in exactly one place:
:meth:`FabricState.apply`, one handler per journal record kind.  The live
coordinator journals an event and then applies it; recovery applies the
same events read back from snapshot + journal; compaction writes
:meth:`FabricState.snapshot_events`, the shortest event list that rebuilds
the current state through that same function.  Replay is the live path by
construction.

``apply`` is pure bookkeeping: it writes neither journal nor store, takes
no lock and reads no clock (``now`` is the caller's: the live clock, or
``0.0`` on replay, so every recovered cell is immediately eligible).

Two things move state without an event, both re-derivable after a crash:
:meth:`FabricState.release` un-leases a cell (a recovered coordinator
releases every lease anyway, so handing one back early needs no record),
and the coordinator's flush moves the buffer's canonical prefix into
``results.jsonl`` -- after every settling event, live and on replay alike,
because a quarantine retracts only accepts that are still buffered.  What
it writes is synced at the next compaction; until then the accept is still
in the journal, and a replay over a projection that lost its tail buffers
and flushes it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import CampaignError
from repro.campaign.fabric.journal import KINDS
from repro.campaign.spec import Cell
from repro.campaign.store import encode_record

#: Kinds that are about the fleet, not one cell (no ``index``).
FLEET_KINDS = ("lease", "quarantine")


@dataclass
class CellState:
    """Coordinator-side lifecycle of one cell."""

    cell: Cell
    payload: dict
    #: pending | audit (holds candidates, awaits another worker's run) |
    #: leased (either, handed to a worker) | done
    status: str = "pending"
    attempts: int = 0
    escalated: bool = False
    eligible_at: float = 0.0  # volatile: backoff does not survive a crash
    #: worker *name* whose record is buffered (None for coordinator-made
    #: terminal records); quarantining that name retracts the record
    accepted_by: str | None = None
    #: the buffered record was confirmed byte-for-byte by a second worker
    audited: bool = False
    #: distinct worker names that died while computing this cell
    killers: set[str] = field(default_factory=set)
    poisoned: bool = False


class FabricState:
    """Cells, flush buffer, audit candidates and quarantines of one run."""

    def __init__(self, cells: list[Cell], completed: set[str]) -> None:
        self.cells = [
            CellState(cell=cell, payload=cell.payload()) for cell in cells
        ]
        for state in self.cells:
            if state.cell.cell_id in completed:
                state.status = "done"  # and not buffered: flushed for good
        #: Accepted records waiting for the canonical prefix to reach them.
        self.buffer: dict[int, tuple[dict, dict]] = {}
        #: Audit candidates per cell index: ``{"worker", "record",
        #: "timing", "encoded"}`` -- resolution needs byte comparison.
        self.audit: dict[int, list[dict]] = {}
        #: Quarantined worker *names* (ids are per-epoch; a re-registered
        #: bad worker must stay quarantined).
        self.quarantined: set[str] = set()
        # a kind the journal accepts but nothing here handles fails now,
        # not at the replay that would have dropped it
        self._handlers = {
            kind: getattr(self, f"_on_{kind}") for kind in KINDS
        }

    def apply(self, event: Mapping[str, Any], now: float) -> None:
        """Fold one journal record into the state.

        An event that no longer applies -- its cell settled, its worker
        already quarantined -- is a no-op, which is what makes replaying a
        journal over a ``results.jsonl`` that is ahead of it safe.
        """
        kind = event.get("kind")
        if kind not in self._handlers:
            raise CampaignError(
                f"journal record of unknown kind {kind!r}; it was written "
                "by a newer version -- recover with that one"
            )
        if kind in FLEET_KINDS:
            self._handlers[kind](event, now)
            return
        index = event.get("index")
        if isinstance(index, int) and 0 <= index < len(self.cells):
            cell = self.cells[index]
            if cell.status != "done":
                self._handlers[kind](index, cell, event, now)

    def release(self, index: int, now: float) -> bool:
        """Un-lease one cell; True when it was leased."""
        if self.cells[index].status != "leased":
            return False
        self._requeue(index, now)
        return True

    def candidate(self, index: int, name: str) -> dict | None:
        """The audit candidate ``name`` already holds on a cell, if any."""
        return next(
            (c for c in self.audit.get(index, ()) if c["worker"] == name),
            None,
        )

    def retractable(self, name: str) -> list[int]:
        """Buffered accepts that quarantining ``name`` withdraws: its own
        and unaudited.  Audited accepts were byte-confirmed by a second
        worker, and anything flushed is past retracting."""
        return [
            index
            for index in self.buffer
            if self.cells[index].accepted_by == name
            and not self.cells[index].audited
        ]

    def snapshot_events(self) -> list[dict]:
        """The shortest event list that rebuilds this state via ``apply``.

        Order matters: quarantines first (nothing after them comes from
        a quarantined worker, so they retract nothing), and per cell the
        budget events before the accept that would make them no-ops.
        Flushed cells need nothing -- ``results.jsonl`` is their record,
        *because the coordinator syncs it before it writes these events
        as a snapshot* (until then their accepts are in the journal).
        """
        events: list[dict] = []

        def add(kind: str, **fields: Any) -> None:
            events.append({"kind": kind, **fields})

        for name in sorted(self.quarantined):
            add("quarantine", worker=name)
        for index, cell in enumerate(self.cells):
            if cell.status == "done" and index not in self.buffer:
                continue
            if cell.attempts:
                add("retry", index=index, attempts=cell.attempts)
            if cell.escalated:
                add(
                    "escalate",
                    index=index,
                    timeout_s=cell.payload.get("timeout_s"),
                    scheduler_params=cell.payload.get("scheduler_params"),
                )
            for name in sorted(cell.killers):
                add("kill", index=index, worker=name)
            for held in self.audit.get(index, ()):
                add(
                    "audit_candidate",
                    index=index,
                    worker=held["worker"],
                    record=held["record"],
                    timing=held["timing"],
                )
            if index in self.buffer:
                record, timing = self.buffer[index]
                add(
                    "poison" if cell.poisoned else "accept",
                    index=index,
                    worker=cell.accepted_by,
                    audited=cell.audited,
                    record=record,
                    timing=timing,
                )
        return events

    # ------------------------------------------------------------------
    # one handler per journal kind; the per-cell ones only ever see a
    # cell that is not settled yet
    # ------------------------------------------------------------------
    def _requeue(self, index: int, now: float) -> None:
        """Back to the pool: awaiting audit while candidates are held."""
        cell = self.cells[index]
        cell.status = "audit" if index in self.audit else "pending"
        cell.eligible_at = now

    def _on_lease(self, event: Mapping[str, Any], now: float) -> None:
        for index in event.get("cells", ()):
            if self.cells[index].status != "done":
                self.cells[index].status = "leased"

    def _on_accept(self, index: int, cell: CellState, event, now) -> None:
        self.audit.pop(index, None)  # settled: candidates obsolete
        self.buffer[index] = (dict(event["record"]), dict(event["timing"]))
        cell.status = "done"
        cell.accepted_by = event.get("worker")
        cell.audited = bool(event.get("audited"))

    #: A coordinator-made give-up record settles a cell like any accept
    #: (no ``worker``, so no quarantine ever retracts it).
    _on_terminal = _on_accept

    def _on_poison(self, index: int, cell: CellState, event, now) -> None:
        cell.poisoned = True
        cell.killers.update(str(k) for k in event.get("killers", ()))
        self._on_accept(index, cell, event, now)

    def _on_audit_candidate(
        self, index: int, cell: CellState, event, now
    ) -> None:
        name = str(event.get("worker", ""))
        if name in self.quarantined or self.candidate(index, name):
            return  # a verdict was already reached on it, or a duplicate
        record = dict(event["record"])
        self.audit.setdefault(index, []).append({
            "worker": name,
            "record": record,
            "timing": dict(event["timing"]),
            "encoded": encode_record(record),
        })
        cell.status = "audit"

    def _on_kill(self, index: int, cell: CellState, event, now) -> None:
        cell.killers.add(str(event.get("worker", "")))

    def _on_retry(self, index: int, cell: CellState, event, now) -> None:
        cell.attempts = max(cell.attempts, int(event.get("attempts", 0)))
        self._requeue(index, now)

    def _on_escalate(self, index: int, cell: CellState, event, now) -> None:
        cell.escalated = True
        if event.get("timeout_s") is not None:
            cell.payload["timeout_s"] = float(event["timeout_s"])
        if event.get("scheduler_params"):
            cell.payload["scheduler_params"] = dict(event["scheduler_params"])
        self._requeue(index, now)

    def _on_quarantine(self, event: Mapping[str, Any], now: float) -> None:
        """Stop trusting a worker *name* and withdraw what only it vouches
        for: its audit candidates (a cell left with none goes back to
        pending) and its :meth:`retractable` accepts, which re-run."""
        name = str(event.get("worker", ""))
        if not name or name in self.quarantined:
            return
        self.quarantined.add(name)
        for index in list(self.audit):
            kept = [c for c in self.audit[index] if c["worker"] != name]
            if kept:
                self.audit[index] = kept
                continue
            del self.audit[index]
            if self.cells[index].status == "audit":
                self._requeue(index, now)
        for index in self.retractable(name):
            del self.buffer[index]
            self.cells[index].accepted_by = None
            self._requeue(index, now)
