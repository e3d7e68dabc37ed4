"""Write-ahead journal for the campaign fabric coordinator.

The coordinator is event-sourced (:mod:`repro.campaign.fabric.state`): its
durable state changes only by applying a journal record, and every record
is on disk *before* the transition it describes is acknowledged to a
worker.  So a SIGKILLed coordinator restarted over the same run directory
re-applies the records and is back exactly where it died:
completed-but-unflushed cells are re-admitted (never re-run), budgets and
verdicts carry over, and pre-crash leases are expired so cells re-lease
cleanly.

Layout inside ``campaign-runs/<id>/``::

    fabric-journal.jsonl  -- one fsync'd record per state transition,
                             appended *before* the transition is acked;
                             the run's only file fsynced per record
    fabric-snapshot.json  -- periodic compaction target (atomic rename),
                             carrying the sequence number it covers
    results.jsonl,        -- the store's files, here a projection of the
    timings.jsonl            accepts: written without fsync, synced by the
                             coordinator before each compaction

Each journal record is ``{"seq": n, "kind": ..., ...}`` with a strictly
increasing ``seq`` and a ``kind`` out of :data:`KINDS`.  Compaction writes
a snapshot ``{"events": [...]}`` -- the shortest list of the same records
that rebuilds the current state -- stamped with the latest ``seq`` and
then truncates the journal, so the journal stays bounded by the compaction
interval and recovery is one fold over snapshot events + journal records.
A crash *between* snapshot write and journal truncation is safe: replay
skips every record whose ``seq`` the snapshot already covers.

Crash conventions: appends are one full line + flush + fsync, snapshots
go through :func:`~repro.campaign.store.atomic_write_text`, and a torn
trailing line (the writer died mid-record) is truncated away on open --
the torn transition was never acknowledged, so dropping it merely re-opens
the cell for leasing.  The coordinator syncs the projection *before* it
compacts, so an acknowledged accept is always on disk: in the journal
tail, in the snapshot (still buffered) or as a synced ``results.jsonl``
line.  Whatever unsynced tail of either projection file a power cut takes,
:class:`~repro.campaign.store.RunStore` cuts both back to the records they
share and the replay writes the rest again.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Iterator, Mapping

from repro.errors import CampaignError
from repro.campaign.store import atomic_write_text
from repro.campaign.spec import canonical_json

JOURNAL = "fabric-journal.jsonl"
SNAPSHOT = "fabric-snapshot.json"

#: Journal record kinds, one per coordinator state transition.  This is
#: the vocabulary both ends are checked against: :meth:`FabricJournal.append`
#: refuses anything else, and ``FabricState`` must hold a handler for each.
KINDS = (
    "lease",
    "accept",
    "terminal",
    "retry",
    "escalate",
    "audit_candidate",
    "quarantine",
    "kill",
    "poison",
)


#: fsync every append and compaction; a test that never loses power may
#: patch it off to run faster.
FSYNC = True


class FabricJournal:
    """Fsync'd append log + snapshot pair inside one run directory."""

    def __init__(self, directory: str | os.PathLike, *, compact_every: int = 256) -> None:
        self.directory = pathlib.Path(directory)
        self.journal_path = self.directory / JOURNAL
        self.snapshot_path = self.directory / SNAPSHOT
        self.compact_every = max(1, int(compact_every))
        self._handle = None
        self._seq = 0
        self._pending = 0  # records appended since the last compaction

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, kind: str, **fields: Any) -> int:
        """Durably journal one transition; returns its sequence number.

        The record is on disk (flushed, and fsynced when :data:`FSYNC`)
        before this returns -- callers ack the transition only after.
        A ``kind`` outside :data:`KINDS` is refused here, at write time:
        no replay could apply it.
        """
        if kind not in KINDS:
            raise CampaignError(
                f"unknown journal record kind {kind!r}; known: {KINDS}"
            )
        self._seq += 1
        record = {"seq": self._seq, "kind": kind, **fields}
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.journal_path, "a", encoding="utf-8")
        self._handle.write(canonical_json(record) + "\n")
        self._handle.flush()
        if FSYNC:
            os.fsync(self._handle.fileno())
        self._pending += 1
        return self._seq

    @property
    def due_for_compaction(self) -> bool:
        return self._pending >= self.compact_every

    def compact(self, state: Mapping[str, Any]) -> None:
        """Fold the journal into a snapshot and truncate it.

        ``state`` must rebuild everything recoverable as of the last
        appended record (the coordinator passes ``{"events": [...]}``);
        the snapshot is stamped with that ``seq`` so a crash before the
        truncation lands replays nothing twice.
        """
        atomic_write_text(
            self.snapshot_path,
            canonical_json({"seq": self._seq, "state": dict(state)}) + "\n",
        )
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.journal_path, "w", encoding="utf-8")
        self._handle.flush()
        if FSYNC:
            os.fsync(self._handle.fileno())
        self._pending = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def load(self) -> tuple[dict | None, list[dict]]:
        """Read ``(snapshot_state, replay_records)`` for recovery.

        Repairs a torn journal tail first (a record the dying writer
        never finished was also never acknowledged -- dropping it is the
        correct outcome: that cell simply re-leases).  Records the
        snapshot already covers (``seq <= snapshot seq``) are skipped.
        Leaves the journal positioned to keep appending (``seq``
        continues past everything seen).
        """
        self._repair_tail()
        snapshot_state: dict | None = None
        snapshot_seq = 0
        if self.snapshot_path.is_file():
            try:
                snapshot = json.loads(
                    self.snapshot_path.read_text(encoding="utf-8")
                )
                snapshot_seq = int(snapshot.get("seq", 0))
                snapshot_state = snapshot.get("state")
            except (json.JSONDecodeError, ValueError, TypeError):
                # atomic_write_text makes this unreachable in practice;
                # fall back to pure journal replay rather than dying
                snapshot_state = None
                snapshot_seq = 0
        records = [
            record
            for record in self._iter_journal()
            if int(record.get("seq", 0)) > snapshot_seq
        ]
        self._seq = max(
            snapshot_seq,
            max((int(r.get("seq", 0)) for r in records), default=0),
        )
        self._pending = len(records)
        return snapshot_state, records

    def _iter_journal(self) -> Iterator[dict]:
        if not self.journal_path.is_file():
            return
        with open(self.journal_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    return  # torn tail already truncated; belt and braces

    def _repair_tail(self) -> None:
        """Truncate a trailing partial record (killed mid-append)."""
        if not self.journal_path.is_file():
            return
        data = self.journal_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        with open(self.journal_path, "r+b") as handle:
            handle.truncate(keep)
