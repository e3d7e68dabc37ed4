"""The coordinator's durable state, what changes it, and what decides how.

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
``0.0`` on replay, so every recovered cell is immediately eligible).  The
*decisions* -- ``lease_window``, ``submission``, ``audit_verdict``,
``death``, ``poison``, ``retry`` -- are pure reads that return the events
a request causes, for the coordinator to commit.

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

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import CampaignError
from repro.campaign.fabric.journal import KINDS
from repro.campaign.runner import new_record
from repro.campaign.spec import Cell, payload_identity_hash
from repro.campaign.store import encode_record, record_checksum
from repro.core.registry import resolve_scheduler

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

    def apply(self, event: Mapping[str, Any], now: float) -> Any:
        """Fold one journal record into the state; returns what its
        handler withdrew (an accept: the audit candidates it settled; a
        quarantine: the buffered accepts it retracted).

        An event that no longer applies -- its cell settled, its worker
        already quarantined -- is a no-op, which is what makes replaying a
        journal over a ``results.jsonl`` that is ahead of it safe.
        """
        kind = event.get("kind")
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise CampaignError(
                f"journal record of unknown kind {kind!r}; it was written "
                "by a newer version -- recover with that one"
            )
        if kind in FLEET_KINDS:
            return handler(self, event, now)
        index = event.get("index")
        if isinstance(index, int) and 0 <= index < len(self.cells):
            cell = self.cells[index]
            if cell.status != "done":
                return handler(self, index, cell, event, now)
        return None

    def release(self, index: int, now: float) -> bool:
        """Un-lease one cell; True when it was leased."""
        if self.cells[index].status != "leased":
            return False
        self._reopen(index, now)
        return True

    def candidate(self, index: int, name: str) -> dict | None:
        """The audit candidate ``name`` already holds on a cell, if any."""
        return next(
            (c for c in self.audit.get(index, ()) if c["worker"] == name),
            None,
        )

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
    # decisions: pure reads returning the events a request causes
    # ------------------------------------------------------------------
    def lease_window(
        self, start: int, limit: int, now: float, name: str
    ) -> list[int]:
        """Up to ``limit`` cells for worker ``name`` in canonical order
        from ``start`` (the flushed prefix: all below it is settled for
        good): pending ones past their backoff, and cells awaiting audit
        that ``name`` has not answered for."""
        indices: list[int] = []
        for i in range(start, len(self.cells)):
            if len(indices) >= limit:
                break
            cell = self.cells[i]
            if cell.status == "pending" and cell.eligible_at <= now:
                indices.append(i)
            elif cell.status == "audit" and self.candidate(i, name) is None:
                indices.append(i)
        return indices

    def retry_after(self, start: int, now: float, cap: float) -> float:
        """When an idle worker should ask again: the nearest backoff end
        past ``start``, within ``[0.01, cap]``."""
        waits = [
            cell.eligible_at - now
            for cell in self.cells[start:]
            if cell.status == "pending"
        ]
        return min(max(min(waits), 0.01), cap) if waits else cap

    def submission(
        self, index: int, name: str, lease_id: str, record: dict,
        timing: dict, integrity: Mapping[str, Any], *, sampled: bool,
        escalation_factor: float,
    ) -> tuple[str, list[dict]]:
        """The verdict on worker ``name``'s ``record`` for cell ``index``
        and the events it commits: ``refused`` (the name is quarantined),
        ``rejected`` (``integrity``'s checksum or cell hash is wrong:
        quarantine), ``duplicate`` (settled already), ``inconclusive`` (a
        timeout proves nothing under audit), ``held`` (the name's own
        candidate again), ``contradicted`` (a different one: quarantine),
        ``candidate`` (under audit, or ``sampled`` for it), ``escalated``
        (a first timeout re-runs with ``escalation_factor`` the budget),
        or ``accepted``."""
        cell = self.cells[index]
        cell_id = cell.cell.cell_id
        if name in self.quarantined:
            return "refused", []
        claimed = [str(integrity.get(key, ""))
                   for key in ("record_sha256", "cell_hash")]
        if claimed != [record_checksum(record),
                       payload_identity_hash(cell.payload)]:
            return "rejected", self._quarantine(
                name, f"integrity reject on {cell_id}"
            )
        if cell.status == "done":
            return "duplicate", []
        timed_out = record.get("status") == "timeout"
        settle = {"index": index, "cell_id": cell_id, "worker": name,
                  "record": record, "timing": timing}
        if index in self.audit or (sampled and not timed_out):
            mine = self.candidate(index, name)
            if timed_out:
                return "inconclusive", []
            if mine is None:
                return "candidate", [{"kind": "audit_candidate", **settle}]
            if mine["encoded"] == encode_record(record):
                return "held", []
            return "contradicted", self._quarantine(
                name, f"self-contradictory candidates on {cell_id}"
            )
        if (
            timed_out
            and escalation_factor > 1.0
            and not cell.escalated
            and cell.payload.get("timeout_s")
        ):
            return "escalated", [self._escalation(index, escalation_factor)]
        return "accepted", [{"kind": "accept", "lease_id": lease_id, **settle}]

    def audit_verdict(self, index: int) -> tuple[list[str], list[dict]] | None:
        """The quarantined names and the events once a cell's candidates
        are conclusive, ``None`` while they are not.  Any two
        byte-identical candidates win -- a liar cannot outvote two honest
        runs of deterministic work -- and the rest are quarantined; three
        mutually distinct ones corroborate nothing, so all three claimants
        are quarantined (withdrawing them) and the cell starts over."""
        candidates = self.audit[index]
        cell_id = self.cells[index].cell.cell_id
        votes = Counter(c["encoded"] for c in candidates)
        winner = next((c for c in candidates if votes[c["encoded"]] > 1), None)
        if winner is not None:
            losers = [c["worker"] for c in candidates
                      if c["encoded"] != winner["encoded"]]
            events = [{
                "kind": "accept", "index": index, "cell_id": cell_id,
                "lease_id": None, "worker": winner["worker"], "audited": True,
                "record": winner["record"], "timing": winner["timing"],
            }]
            reason = f"audit mismatch on {cell_id}"
        elif len(candidates) >= 3:
            losers = [c["worker"] for c in candidates]
            events = []
            reason = f"three-way audit disagreement on {cell_id}"
        else:
            return None
        for loser in losers:
            events += self._quarantine(loser, reason)
        return losers, events

    def death(self, indices: list[int], name: str) -> tuple[int | None, list]:
        """Charge worker ``name``'s death to the cell of its lease it was
        most plausibly computing, the first still leased (workers run a
        lease in canonical order): ``(suspect, [kill])`` for a new
        distinct killer -- the cell reopens without a retry charge, the
        poison threshold bounding it -- and ``(None, [])`` for a repeat
        one (a respawning worker looping on it), which pays a retry."""
        suspect = next(
            (i for i in indices if self.cells[i].status == "leased"), None
        )
        if suspect is None or name in self.cells[suspect].killers:
            return None, []
        return suspect, [{"kind": "kill", "index": suspect, "worker": name}]

    def poison(self, index: int, threshold: int) -> list[dict]:
        """Terminally record a cell ``threshold`` distinct workers died
        computing."""
        cell = self.cells[index]
        if cell.status == "done" or len(cell.killers) < threshold:
            return []
        killers = sorted(cell.killers)
        return [self._give_up(
            "poison", index, f"poisoned: killed {len(killers)} distinct "
            f"workers ({', '.join(killers)})", killers=killers,
        )]

    def retry(self, index: int, budget: int, detail: str) -> list[dict]:
        """Reopen a transiently failed or reclaimed cell, or give it up
        with a terminal error record once ``budget`` retries are spent."""
        cell = self.cells[index]
        if cell.status == "done":
            return []
        attempts = cell.attempts + 1
        if attempts <= budget:
            return [{"kind": "retry", "index": index, "attempts": attempts}]
        return [self._give_up(
            "terminal", index, f"{detail} (gave up after {attempts} attempts)"
        )]

    def _quarantine(self, name: str, reason: str) -> list[dict]:
        if name in self.quarantined:
            return []
        return [{"kind": "quarantine", "worker": name, "reason": reason}]

    def _give_up(self, kind: str, index: int, detail: str, **fields) -> dict:
        """Settle a cell with a coordinator-made error record."""
        cell = self.cells[index]
        cell_id = cell.cell.cell_id
        return {"kind": kind, "index": index, "cell_id": cell_id,
                "record": new_record(cell.payload, "error", detail),
                "timing": {"id": cell_id, "wall_ms": 0.0}, **fields}

    def _escalation(self, index: int, factor: float) -> dict:
        """The wall-clock limit grows by ``factor``, and so do the search
        budgets of a scheduler that takes them (the exact engines'
        ``node_budget`` / ``time_limit_s``)."""
        payload = self.cells[index].payload
        scheduler = resolve_scheduler(payload["scheduler"])
        extra: dict[str, Any] = {}
        for budget, number in (("time_limit_s", float), ("node_budget", int)):
            bound = scheduler.params.get(budget)
            if budget in scheduler.accepts and bound is not None:
                extra[budget] = number(bound * factor)
        return {"kind": "escalate", "index": index,
                "timeout_s": float(payload["timeout_s"]) * factor,
                "scheduler_params": extra or None}

    # ------------------------------------------------------------------
    # one handler per journal kind; the per-cell ones only ever see a
    # cell that is not settled yet
    # ------------------------------------------------------------------
    def _reopen(self, index: int, now: float) -> None:
        """Back to the pool: awaiting audit while candidates are held."""
        cell = self.cells[index]
        cell.status = "audit" if index in self.audit else "pending"
        cell.eligible_at = now

    def _on_lease(self, event: Mapping[str, Any], now: float) -> None:
        for index in event.get("cells", ()):
            if self.cells[index].status != "done":
                self.cells[index].status = "leased"

    def _on_accept(self, index: int, cell: CellState, event, now) -> list | None:
        held = self.audit.pop(index, None)  # settled: candidates obsolete
        self.buffer[index] = (dict(event["record"]), dict(event["timing"]))
        cell.status = "done"
        cell.accepted_by = event.get("worker")
        cell.audited = bool(event.get("audited"))
        return held

    #: A coordinator-made give-up record settles a cell like any accept
    #: (no ``worker``, so no quarantine ever retracts it).
    _on_terminal = _on_accept

    def _on_poison(self, index: int, cell: CellState, event, now) -> list | None:
        cell.poisoned = True
        cell.killers.update(str(k) for k in event.get("killers", ()))
        return self._on_accept(index, cell, event, now)

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
        self._reopen(index, now)

    def _on_escalate(self, index: int, cell: CellState, event, now) -> None:
        cell.escalated = True
        if event.get("timeout_s") is not None:
            cell.payload["timeout_s"] = float(event["timeout_s"])
        if event.get("scheduler_params"):
            cell.payload["scheduler_params"] = dict(event["scheduler_params"])
        self._reopen(index, now)

    def _on_quarantine(self, event: Mapping[str, Any], now: float) -> list[int]:
        """Stop trusting a worker *name* and withdraw what only it vouches
        for: its audit candidates (a cell left with none goes back to
        pending) and its buffered unaudited accepts, which re-run; an
        audited accept was byte-confirmed by a second worker, and
        anything flushed is past retracting.  Returns the retracted."""
        name = str(event.get("worker", ""))
        if not name or name in self.quarantined:
            return []
        self.quarantined.add(name)
        for index in list(self.audit):
            kept = [c for c in self.audit[index] if c["worker"] != name]
            if kept:
                self.audit[index] = kept
                continue
            del self.audit[index]
            if self.cells[index].status == "audit":
                self._reopen(index, now)
        retracted = [
            index
            for index in self.buffer
            if self.cells[index].accepted_by == name
            and not self.cells[index].audited
        ]
        for index in retracted:
            del self.buffer[index]
            self.cells[index].accepted_by = None
            self._reopen(index, now)
        return retracted


#: journal kind -> the function that folds it into a :class:`FabricState`
#: (bound methods on the state would be a cycle); a kind the journal
#: accepts but nothing here handles fails at import, not at a replay
_HANDLERS = {kind: getattr(FabricState, f"_on_{kind}") for kind in KINDS}
