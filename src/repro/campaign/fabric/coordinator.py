"""The campaign fabric coordinator: cells in, leases out, shards folded.

The coordinator owns one campaign: it expands the spec, leases pending
cells to pull-based workers, tracks liveness through heartbeats, reclaims
the cells of dead or expired leases, retries transient failures with
bounded exponential backoff + jitter, escalates timed-out cells once with
a larger budget, and folds submitted shards through the unchanged
:class:`~repro.campaign.store.RunStore` path.

Determinism contract (the same one the pool runner honors): records are
seed-derived and written in canonical cell order regardless of which
worker produced them or in what order they arrived -- out-of-order shards
are buffered and flushed as the canonical prefix grows -- so an N-worker
fleet's ``results.jsonl`` is byte-identical to the 1-worker run, and both
match the single-host pool runner.

At-least-once semantics: every accept path is idempotent.  A duplicate
submission for a completed cell is a counted no-op; a submission under a
reclaimed (stale) lease is still accepted when the cell is incomplete --
the work is deterministic, so whichever copy arrives first wins and the
rest are no-ops.

Crash tolerance by event sourcing (:mod:`~repro.campaign.fabric.state`):
everything durable changes only by applying a journal record.  A handler
here *decides*, commits the event (``_commit``: fsynced to the write-ahead
:class:`~repro.campaign.fabric.journal.FabricJournal` *before* it is
applied or acknowledged) and then does only volatile work: lease table,
backoff, per-worker tallies, spans, flushing the buffer through the store.
The journal is the only file fsynced per record: ``results.jsonl`` and
``timings.jsonl`` are its projection, synced once before each compaction,
so whatever tail of them a power cut takes is still in the journal.
A restarted coordinator applies the same events read back from snapshot
(``{"events": [...]}``) + journal, so recovery cannot drift from the live
path, and a recovered run stays byte-identical to an uncrashed one.

Result integrity (PR 10): the coordinator stops *trusting* well-formed
payloads.  Submissions carry a canonical-JSON sha256 over the record plus
the cell payload's identity hash, validated before anything is journaled;
a configurable ``audit_fraction`` of accepted cells is deterministically
sampled (seeded on the cell id) and held back until a *different* worker
re-executes them and the folds match byte-for-byte (any two matching
candidates win -- a lying auditor cannot outvote two honest runs).
Workers that fail validation or audits are *quarantined* by name: no new
leases, in-flight leases requeued, their unflushed unaudited accepts
retracted and re-run.  A cell whose worker dies while computing it is
charged a *kill*; ``poison_kill_threshold`` distinct dead workers mark
the cell poisoned and terminally recorded instead of looping through the
retry budget.  All of it -- candidates, quarantines, kills, poisonings --
is journaled, so the verdicts survive coordinator crashes.
"""

from __future__ import annotations

import copy
import random
import threading
import time
from collections import Counter
from typing import Any, Mapping

from repro.errors import CampaignError
from repro.obs import trace as obs
from repro.campaign.fabric.journal import FabricJournal
from repro.campaign.fabric.leases import Lease, LeaseTable
from repro.campaign.fabric.state import CellState, FabricState
from repro.campaign.runner import new_record
from repro.campaign.schedulers import resolve
from repro.campaign.spec import (
    CampaignSpec,
    derive_seed,
    payload_identity_hash,
)
from repro.campaign.store import RunStore, encode_record, record_checksum, tally
from repro.metrics import global_collector

#: Fabric counter names (exposed via ``repro.metrics`` and ``status()``).
COUNTERS = (
    "leases_granted",
    "cells_leased",
    "reclaims",
    "retries",
    "escalations",
    "duplicate_submits",
    "stale_submits",
    "transient_failures",
    "deregisters",
    "journal_records",
    "journal_compactions",
    "batch_submits",
    "integrity_rejects",
    "audits_run",
    "audit_mismatches",
    "quarantines",
    "kills",
    "poisoned_cells",
    "recovered_buffered",
    "recovered_retries",
    "recovered_escalations",
    "recovered_leases_expired",
    "recovered_quarantines",
    "recovered_audit_candidates",
)

#: Per-worker tallies (``telemetry()``); those that are also fabric
#: counters are bumped by the same ``_count`` call.
TALLIES = (
    "cells_leased",
    "cells_done",
    "timeouts",
    "escalations",
    "transient_failures",
    "stale_submits",
    "duplicate_submits",
    "integrity_rejects",
)


def _refusal(reason: str) -> dict:
    """The reply to a submission a quarantine verdict rules out."""
    return {"accepted": False, "rejected": True, "reason": reason,
            "quarantined": True}


class Coordinator:
    """Lease/heartbeat/submit service for one campaign's worker fleet."""

    def __init__(
        self,
        spec: CampaignSpec,
        root: str = "campaign-runs",
        store: RunStore | None = None,
        *,
        lease_ttl_s: float = 10.0,
        lease_hard_ttl_factor: float = 8.0,
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float | None = None,
        lease_cells: int = 4,
        max_transient_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        escalation_factor: float = 4.0,
        journal_fsync: bool = True,
        journal_compact_every: int = 256,
        audit_fraction: float = 0.0,
        audit_seed: int = 0,
        poison_kill_threshold: int = 3,
        chaos=None,
        clock=time.monotonic,
        jitter_seed: int = 0,
    ) -> None:
        self.spec = spec
        self.store = store or RunStore(root, spec.campaign_id)
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else 3.0 * heartbeat_interval_s
        )
        self.lease_cells = max(1, int(lease_cells))
        self.max_transient_retries = int(max_transient_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        #: ``0`` disables timeout escalation entirely.
        self.escalation_factor = float(escalation_factor)
        #: Fraction of accepted cells held back for audit re-execution by
        #: a different worker (``0`` disables auditing; ``1`` audits all).
        self.audit_fraction = max(0.0, min(1.0, float(audit_fraction)))
        self.audit_seed = int(audit_seed)
        #: Distinct dead workers before a cell is declared poisoned.
        self.poison_kill_threshold = max(1, int(poison_kill_threshold))
        #: Optional :class:`~repro.campaign.fabric.chaos.CoordinatorChaos`
        #: (crash smoke / tests): fires right after an accept is
        #: journaled, the nastiest deterministic crash point.
        self.chaos = chaos
        self._clock = clock
        self._rng = random.Random(jitter_seed)
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}

        cells = spec.expand()
        self.store.initialize(spec, n_cells=len(cells))
        flushed = self.store.records()
        completed = {record["id"] for record in flushed}
        #: ``store.status()``, kept current by ``_flush_locked``
        self._progress = self.store.status(flushed)
        #: Everything that survives a crash; changed only by ``_commit``
        #: (live) and ``_recover_locked`` (replay), both through ``apply``.
        self._state = FabricState(cells, completed)
        self._by_id = {cell.cell_id: i for i, cell in enumerate(cells)}
        # in-order folding relies on the resumed prefix being canonical
        # (both the pool runner and this coordinator only ever write
        # canonical prefixes, so anything else is a corrupted directory)
        done_prefix = 0
        for state in self._state.cells:
            if state.status != "done":
                break
            done_prefix += 1
        if done_prefix != len(completed):
            raise CampaignError(
                f"{self.store.directory} results are not a canonical prefix "
                f"({len(completed)} records, prefix {done_prefix}); the run "
                "directory is corrupt -- delete it to start over"
            )
        self._next_flush = done_prefix
        self._started_at = self._clock()
        #: Per-worker telemetry.  Keyed by worker id and kept *forever*
        #: (the lease table forgets dead workers; the telemetry endpoint
        #: must not, or a SIGKILLed worker's tally vanishes mid-watch).
        self._wstats: dict[str, dict] = {}
        self._table = LeaseTable(
            self.lease_ttl_s,
            self.heartbeat_timeout_s,
            hard_ttl_factor=lease_hard_ttl_factor,
        )
        self._journal = FabricJournal(
            self.store.directory,
            fsync=journal_fsync,
            compact_every=journal_compact_every,
        )
        self._recover_locked()

    # ------------------------------------------------------------------
    # crash recovery (constructor-time; the lock is not yet contended)
    # ------------------------------------------------------------------
    def _recover_locked(self) -> None:
        """Re-apply snapshot + journal from a previous coordinator's life.

        The fold re-admits journaled accepts that are not in
        ``results.jsonl`` (buffered out of order, or flushed into a tail
        the projection then lost) and restores budgets, verdicts and
        quarantines; then every pre-crash lease is expired.  Finishes with
        a compaction so the next incarnation replays from a snapshot.

        The replay flushes after every event, as the live coordinator
        did: a quarantine retracts only what is still buffered.  Cells
        found in the projection count as flushed from the start, so it
        holds off until the last event about one of them -- live, those
        after them were all still buffered until then.
        """
        snapshot, records = self._journal.load()
        if snapshot is None and not records:
            return  # first incarnation: nothing to recover
        if snapshot is not None and "events" not in snapshot:
            # the pre-event-model per-cell snapshot; reading the parts
            # that look familiar would silently forget its quarantines
            raise CampaignError(
                f"{self._journal.snapshot_path} is in the old per-cell "
                "snapshot format; finish the campaign with the version that "
                "wrote it, or delete it and "
                f"{self._journal.journal_path.name} to resume from "
                "results.jsonl alone (unflushed shards re-run; retry "
                "budgets and quarantines are forgotten)"
            )
        state = self._state
        with obs.span("fabric.recover", campaign=self.campaign_id) as span:
            #: cell index -> (lease_id, worker_id) of its latest grant
            holder: dict[int, tuple[str, str]] = {}
            events = [*(snapshot or {}).get("events", ()), *records]
            found = self._next_flush
            hold = 0
            for n, event in enumerate(events):
                if event.get("index", found) < found:
                    hold = n
            for n, event in enumerate(events):
                state.apply(event, 0.0)
                if n >= hold:
                    self._flush_locked()
                if event["kind"] == "lease":
                    for index in event["cells"]:
                        holder[index] = (event["lease_id"], event["worker_id"])
            readmitted = [*range(found, self._next_flush), *sorted(state.buffer)]
            # the lease table is rebuilt empty: whatever is still leased
            # was held by a lease that died with the old coordinator
            expired = set()
            for index, lease in holder.items():
                if state.release(index, 0.0):
                    expired.add(lease)
            # counted off the recovered state, not off the records, so a
            # compacted history and an uncompacted one report the same
            open_cells = [c for c in state.cells if c.status != "done"]
            recovered = {
                "recovered_buffered": len(readmitted),
                "recovered_retries": sum(c.attempts > 0 for c in open_cells),
                "recovered_escalations": sum(c.escalated for c in open_cells),
                "recovered_leases_expired": len(expired),
                "recovered_quarantines": len(state.quarantined),
                "recovered_audit_candidates": sum(map(len, state.audit.values())),
            }
            for name, value in recovered.items():
                self.counters[name] = value
                if value:
                    global_collector().increment(f"fabric.{name}", value)
            for index in readmitted:
                # the accept's span may have died unwritten with the old
                # coordinator; this event is the durable trace of the
                # settlement (verify_lifecycles treats it as one)
                obs.event(
                    "fabric.recovered_cell",
                    cell_id=state.cells[index].cell.cell_id,
                )
            for lease_id, worker_id in sorted(expired):
                obs.event(
                    "fabric.lease_expired_on_recovery",
                    lease_id=lease_id,
                    worker_id=worker_id,
                )
            # a crash can land between a journaled kill (reaching the
            # poison threshold) and the poison record itself, or between
            # a matching audit candidate and its accept -- settle both
            for index in range(len(state.cells)):
                self._poison_locked(index, 0.0)
            for index in list(state.audit):
                if index in state.audit:
                    self._resolve_audit_locked(index, 0.0)
            span.set_attrs(**recovered, journal_records=len(records))
            obs.event(
                "fabric.recovered",
                campaign=self.spec.campaign_id,
                buffered=recovered["recovered_buffered"],
                leases_expired=recovered["recovered_leases_expired"],
            )
            # fold everything recovered into a fresh snapshot so the
            # journal starts this incarnation bounded and empty
            self._compact_locked()

    # ------------------------------------------------------------------
    # journaling (call with the lock held)
    # ------------------------------------------------------------------
    def _commit(self, kind: str, now: float, **fields: Any) -> None:
        """Make one transition durable, then real.

        The only way a live coordinator changes durable state: the event
        is journaled (on disk before ``append`` returns) and then applied
        by the same function recovery folds over the journal.
        """
        self._journal.append(kind, **fields)
        self._count("journal_records")
        self._state.apply({"kind": kind, **fields}, now)
        # the state is the fold of the events so far after *every* commit,
        # so any of them may be the one that folds the journal away
        if self._journal.due_for_compaction:
            self._compact_locked()

    def _compact_locked(self) -> None:
        with obs.span(
            "fabric.journal.compact", campaign=self.spec.campaign_id
        ) as span:
            events = self._state.snapshot_events()
            # last, so no budget event above re-opens a leased cell
            events.extend(
                {
                    "kind": "lease",
                    "lease_id": lease.lease_id,
                    "worker_id": lease.worker_id,
                    "cells": list(lease.cell_indices),
                }
                for lease in self._table.leases()
            )
            # the snapshot forgets flushed cells: on disk with them first
            self.store.sync()
            self._journal.compact({"events": events})
            span.set_attrs(snapshot_events=len(events))
        self._count("journal_compactions")

    # ------------------------------------------------------------------
    # worker-facing protocol (every payload/return is JSON-compatible)
    # ------------------------------------------------------------------
    def register(self, body: Mapping[str, Any] | None = None) -> dict:
        body = dict(body or {})
        with self._lock:
            now = self._clock()
            state = self._table.register_worker(
                name=str(body.get("name", "worker")),
                meta={k: v for k, v in body.items() if k != "name"},
                now=now,
            )
            self._wstats[state.worker_id] = {
                "name": state.name,
                "registered_at": now,
                **dict.fromkeys(TALLIES, 0),
            }
            obs.event(
                "fabric.register",
                worker_id=state.worker_id,
                worker=state.name,
            )
            return {
                "worker_id": state.worker_id,
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "lease_cells": self.lease_cells,
                "quarantined": state.name in self._state.quarantined,
            }

    def heartbeat(self, worker_id: str) -> dict:
        with self._lock:
            now = self._clock()
            known = self._table.touch(worker_id, now)
            self._reap(now)
            return {"ok": known, "unknown_worker": not known,
                    "done": self._finished_locked()}

    def lease(self, worker_id: str, max_cells: int | None = None) -> dict:
        """Grant up to ``max_cells`` eligible pending cells (canonical
        order).  ``done`` tells an idle worker the campaign is complete;
        ``retry_after_s`` tells it when to ask again."""
        limit = self.lease_cells if max_cells is None else max(1, int(max_cells))
        with self._lock:
            now = self._clock()
            if not self._table.touch(worker_id, now):
                return {"unknown_worker": True, "cells": [], "done": False}
            self._reap(now)
            if self._finished_locked():
                return {"cells": [], "done": True}
            name = self._worker_name(worker_id)
            if name in self._state.quarantined:
                return {
                    "cells": [],
                    "done": False,
                    "quarantined": True,
                    "retry_after_s": self.heartbeat_interval_s,
                }
            cells = self._state.cells
            indices = []
            # everything below the flushed prefix is settled for good
            for i in range(self._next_flush, len(cells)):
                if len(indices) >= limit:
                    break
                state = cells[i]
                if state.status == "pending" and state.eligible_at <= now:
                    indices.append(i)
                elif (
                    state.status == "audit"
                    and self._state.candidate(i, name) is None
                ):
                    # audit re-execution must come from a worker that has
                    # not already answered for this cell
                    indices.append(i)
            if not indices:
                return {
                    "cells": [],
                    "done": False,
                    "retry_after_s": self._retry_after_locked(now),
                }
            lease = self._table.grant(worker_id, indices, now)
            # journaled before the grant is acknowledged: a recovered
            # coordinator expires it, so the cells re-lease cleanly
            self._commit(
                "lease",
                now,
                lease_id=lease.lease_id,
                worker_id=worker_id,
                cells=indices,
            )
            for i in indices:
                obs.event(
                    "fabric.lease_cell",
                    cell_id=cells[i].cell.cell_id,
                    worker_id=worker_id,
                    lease_id=lease.lease_id,
                )
            self._count("leases_granted")
            self._count("cells_leased", len(indices), worker_id)
            return {
                "lease_id": lease.lease_id,
                "cells": [dict(cells[i].payload) for i in indices],
                "done": False,
            }

    def submit(
        self,
        worker_id: str,
        lease_id: str,
        cell_id: str,
        record: Mapping[str, Any],
        timing: Mapping[str, Any],
        integrity: Mapping[str, Any],
    ) -> dict:
        """Fold one finished cell; idempotent under at-least-once delivery.

        ``integrity`` carries ``record_sha256`` -- the canonical-JSON
        checksum of the record -- and ``cell_hash`` -- the leased
        payload's identity hash; a mismatch rejects the submission
        *before* journaling and quarantines the submitter.  A submission
        without it is malformed (:class:`CampaignError`), not hostile.
        """
        entry = {"cell_id": cell_id, "record": record, "timing": timing,
                 "integrity": integrity}
        with self._lock:
            now = self._clock()
            self._table.touch(worker_id, now)
            reply = self._submit_one_locked(worker_id, lease_id, entry, now)
            self._reap(now)
            reply["done"] = self._finished_locked()
            return reply

    def submit_batch(
        self,
        worker_id: str,
        lease_id: str,
        entries: list,
    ) -> dict:
        """Fold several finished cells in one round-trip.

        Each entry is ``{"cell_id", "record", "timing", "integrity"}``
        and is validated, checked for duplication, and journaled exactly
        as an individual ``submit`` would -- idempotent per record, so a
        replayed batch (a worker resubmitting after an outage) is a batch
        of counted no-ops.  Returns per-entry ``results`` in order.
        """
        with self._lock:
            now = self._clock()
            self._table.touch(worker_id, now)
            results = [
                self._submit_one_locked(worker_id, lease_id, entry, now)
                for entry in entries
            ]
            self._count("batch_submits", worker_id=worker_id)
            self._reap(now)
            return {"results": results, "done": self._finished_locked()}

    def _submit_one_locked(
        self, worker_id: str, lease_id: str, entry: Mapping[str, Any], now: float
    ) -> dict:
        """Fold one ``{"cell_id", "record", "timing", "integrity"}``."""
        cell_id = str(entry["cell_id"])
        integrity = entry.get("integrity")
        if not isinstance(integrity, Mapping):
            # omitting the sidecar must not be a way round the check
            raise CampaignError(
                f"submission for cell {cell_id!r} carries no 'integrity'"
            )
        with obs.span(
            "fabric.submit", cell_id=cell_id, worker_id=worker_id
        ) as span:

            def reply(outcome: str, fields: dict) -> dict:
                span.set_attrs(outcome=outcome)
                return fields

            index = self._by_id.get(cell_id)
            if index is None:
                raise CampaignError(f"unknown cell {cell_id!r}")
            state = self._state.cells[index]
            name = self._worker_name(worker_id)
            if name in self._state.quarantined:
                # a quarantined worker's results are suspect by verdict;
                # nothing it delivers is folded
                return reply("quarantined", _refusal("quarantined"))
            record = dict(entry["record"])
            timing = dict(entry["timing"])
            if not self._integrity_ok_locked(state, record, integrity):
                self._count("integrity_rejects", worker_id=worker_id)
                obs.event(
                    "fabric.integrity_reject",
                    cell_id=cell_id,
                    worker_id=worker_id,
                )
                self._quarantine_locked(
                    name, f"integrity reject on {cell_id}", now
                )
                return reply("rejected", _refusal("integrity"))
            fresh_lease = self._table.release_cell(lease_id, index)
            span.set_attrs(stale=not fresh_lease)
            if not fresh_lease:
                self._count("stale_submits", worker_id=worker_id)
            if state.status == "done":
                self._count("duplicate_submits", worker_id=worker_id)
                return reply("duplicate", {"accepted": False, "duplicate": True})
            timed_out = record.get("status") == "timeout"
            if timed_out:
                self._tally(worker_id, "timeouts")
            if index in self._state.audit or (
                not timed_out and self._audit_selected(cell_id)
            ):
                # under audit already, or deterministically sampled for
                # it: the record becomes a candidate and the cell waits
                # for a different worker's byte-identical confirmation
                return reply(*self._audit_submit_locked(
                    index, worker_id, name, record, timing, now
                ))
            if (
                timed_out
                and self.escalation_factor > 1.0
                and not state.escalated
                and state.payload.get("timeout_s")
            ):
                self._escalate_locked(index, worker_id, now)
                return reply("escalated", {"accepted": True, "escalated": True})
            # write-ahead: the accept is durable before the worker hears
            # "accepted", so a crash after this line can never re-run the
            # cell -- recovery re-admits the journaled record instead
            self._commit(
                "accept",
                now,
                index=index,
                cell_id=cell_id,
                lease_id=lease_id,
                worker=name,
                record=record,
                timing=timing,
            )
            self._accepted_locked(timing)
            self._tally(worker_id, "cells_done")
            return reply("accepted", {"accepted": True, "duplicate": False})

    def fail(
        self,
        worker_id: str,
        lease_id: str,
        cell_id: str,
        detail: str = "",
        requeue: bool = False,
    ) -> dict:
        """A worker reports a *transient* (infrastructure-level) failure.

        Deterministic outcomes -- scheduler errors, infeasibility,
        timeouts -- are captured inside the cell record by ``run_cell``
        and submitted normally; this path is for the machinery around it
        failing.  Bounded retry with backoff, then a terminal error
        record so the campaign always completes.  ``requeue=True`` (a
        draining worker handing unstarted cells back) skips the attempt
        bump and the backoff: nothing failed, the cell just needs a new
        owner.
        """
        with self._lock:
            now = self._clock()
            self._table.touch(worker_id, now)
            index = self._by_id.get(cell_id)
            if index is None:
                raise CampaignError(f"unknown cell {cell_id!r}")
            self._table.release_cell(lease_id, index)
            obs.event(
                "fabric.fail_cell",
                cell_id=cell_id,
                worker_id=worker_id,
                requeue=bool(requeue),
                detail=detail[:120],
            )
            if requeue:
                self._state.release(index, now)
                return {"retried": True, "done": self._finished_locked()}
            self._count("transient_failures", worker_id=worker_id)
            retried = self._retry_locked(index, now, f"transient: {detail}")
            return {"retried": retried, "done": self._finished_locked()}

    def deregister(self, worker_id: str) -> dict:
        """A worker says goodbye (graceful drain / clean shutdown).

        Its leases are requeued immediately -- no attempt bump, no
        backoff, no waiting for the TTL to expire -- and the worker is
        forgotten by the lease table (its telemetry tallies remain).
        """
        with self._lock:
            now = self._clock()
            requeued = self._release_locked(
                self._table.deregister_worker(worker_id), now
            )
            self._count("deregisters")
            obs.event(
                "fabric.deregister",
                worker_id=worker_id,
                requeued=requeued,
            )
            return {"ok": True, "requeued": requeued,
                    "done": self._finished_locked()}

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def campaign_id(self) -> str:
        return self.spec.campaign_id

    @property
    def finished(self) -> bool:
        with self._lock:
            self._reap(self._clock())
            return self._finished_locked()

    def wait(self, timeout_s: float | None = None, poll_s: float = 0.05) -> bool:
        """Block until the campaign completes; False on timeout."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not self.finished:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)
        return True

    def close(self) -> None:
        self.store.sync()
        self.store.close()
        self._journal.close()

    def status(self) -> dict:
        """Store progress counters plus the fabric's own."""
        with self._lock:
            now = self._clock()
            self._reap(now)
            state = self._state
            data = copy.deepcopy(self._progress)
            for record, _ in state.buffer.values():
                tally(data, record)
            data["fabric"] = {
                **self.counters,
                "workers": len(self._table.workers()),
                "active_leases": len(self._table.leases()),
                "buffered": len(state.buffer),
                "pending": len(state.cells) - data["done"],
                "audits_pending": len(state.audit),
                "quarantined_workers": sorted(state.quarantined),
            }
            return data

    def telemetry(self) -> dict:
        """Live per-worker view for ``campaign status --watch``.

        Workers that died (SIGKILL, reaped heartbeat) stay listed with
        ``alive: false`` -- their tallies are part of the campaign's
        story.  Rates use the coordinator's clock, so an injected test
        clock yields deterministic numbers.
        """
        with self._lock:
            now = self._clock()
            self._reap(now)
            alive = {w.worker_id: w for w in self._table.workers()}
            in_flight: dict[str, int] = {}
            lease_ages: dict[str, list[float]] = {}
            for lease in self._table.leases():
                in_flight[lease.worker_id] = (
                    in_flight.get(lease.worker_id, 0)
                    + len(lease.cell_indices)
                )
                lease_ages.setdefault(lease.worker_id, []).append(
                    round(now - lease.granted_at, 3)
                )
            workers = []
            for worker_id, stats in self._wstats.items():
                live = alive.get(worker_id)
                age_s = (
                    round(now - live.last_seen, 3)
                    if live is not None
                    else None
                )
                active_s = max(now - stats["registered_at"], 1e-9)
                workers.append({
                    "worker_id": worker_id,
                    "name": stats["name"],
                    "alive": live is not None,
                    "last_seen_age_s": age_s,
                    **{name: stats[name] for name in TALLIES},
                    "cells_per_s": round(stats["cells_done"] / active_s, 3),
                    "in_flight": in_flight.get(worker_id, 0),
                    "lease_ages_s": sorted(lease_ages.get(worker_id, [])),
                    "quarantined": stats["name"] in self._state.quarantined,
                })
            workers.sort(key=lambda w: w["worker_id"])
            total = len(self._state.cells)
            done = self._next_flush + len(self._state.buffer)
            return {
                "campaign": self.spec.campaign_id,
                "total": total,
                "done": done,
                "pending": total - done,
                "finished": self._finished_locked(),
                "uptime_s": round(now - self._started_at, 3),
                "counters": dict(self.counters),
                "audits_pending": len(self._state.audit),
                "quarantined_workers": sorted(self._state.quarantined),
                "workers": workers,
            }

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _finished_locked(self) -> bool:
        return (
            self._next_flush == len(self._state.cells)
            and not self._state.buffer
        )

    def _tally(self, worker_id: str | None, name: str, by: int = 1) -> None:
        """Bump one worker's telemetry tally (unknown workers have none)."""
        stats = self._wstats.get(worker_id)
        if stats is not None and name in TALLIES:
            stats[name] += by

    def _count(
        self, name: str, by: int = 1, worker_id: str | None = None
    ) -> None:
        """Bump a fabric counter, the process metric behind it and, for
        the per-worker ones, the worker's own tally."""
        self.counters[name] += by
        self._tally(worker_id, name, by)
        global_collector().increment(
            f"fabric.{name}",
            by,
            labels={"worker": worker_id} if worker_id else None,
        )

    def _backoff_locked(self, attempts: int) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempts - 1)),
        )
        return base * (1.0 + 0.5 * self._rng.random())

    def _retry_after_locked(self, now: float) -> float:
        waits = [
            state.eligible_at - now
            for state in self._state.cells[self._next_flush:]
            if state.status == "pending"
        ]
        if not waits:
            return self.heartbeat_interval_s
        return min(max(min(waits), 0.01), self.heartbeat_interval_s)

    def _release_locked(self, leases: list[Lease], now: float) -> int:
        """Hand the still-leased cells of removed leases straight back to
        the pool (clean drain, quarantine: nothing failed, so no attempt
        bump and no backoff); returns how many."""
        return sum(
            self._state.release(index, now)
            for lease in leases
            for index in lease.cell_indices
        )

    def _retry_locked(self, index: int, now: float, detail: str) -> bool:
        """Requeue a transiently-failed/reclaimed cell, or give up on it."""
        state = self._state.cells[index]
        if state.status == "done":
            return False
        attempts = state.attempts + 1
        cell_id = state.cell.cell_id
        if attempts > self.max_transient_retries:
            self._give_up_locked(
                "terminal",
                index,
                now,
                f"{detail} (gave up after {attempts} attempts)",
            )
            obs.event(
                "fabric.terminal_error", cell_id=cell_id, attempts=attempts
            )
            return False
        self._commit("retry", now, index=index, attempts=attempts)
        state.eligible_at = now + self._backoff_locked(attempts)
        self._count("retries")
        obs.event("fabric.retry_cell", cell_id=cell_id, attempts=attempts)
        return True

    def _give_up_locked(
        self, kind: str, index: int, now: float, detail: str, **fields: Any
    ) -> None:
        """Settle a cell with a coordinator-made error record."""
        state = self._state.cells[index]
        cell_id = state.cell.cell_id
        self._commit(
            kind,
            now,
            index=index,
            cell_id=cell_id,
            record=new_record(state.payload, "error", detail),
            timing={"id": cell_id, "wall_ms": 0.0},
            **fields,
        )
        self._flush_locked()

    def _escalate_locked(self, index: int, worker_id: str, now: float) -> None:
        """Re-lease a timed-out cell once, with a larger budget.

        The wall-clock limit grows by ``escalation_factor``; when the
        scheduler accepts explicit search budgets (the exact engines'
        ``node_budget`` / ``time_limit_s``), those grow with it.
        """
        state = self._state.cells[index]
        timeout_s = float(state.payload["timeout_s"]) * self.escalation_factor
        scheduler = resolve(state.payload["scheduler"])
        extra: dict[str, Any] = {}
        for budget, number in (("time_limit_s", float), ("node_budget", int)):
            bound = scheduler.params.get(budget)
            if budget in scheduler.accepts and bound is not None:
                extra[budget] = number(bound * self.escalation_factor)
        self._commit(
            "escalate",
            now,
            index=index,
            timeout_s=timeout_s,
            scheduler_params=extra or None,
        )
        self._count("escalations")
        self._tally(worker_id, "escalations")
        obs.event(
            "fabric.escalate_cell",
            cell_id=state.cell.cell_id,
            timeout_s=timeout_s,
        )

    def _accepted_locked(self, timing: Mapping[str, Any]) -> None:
        """Volatile tail of a journaled worker accept."""
        if self.chaos is not None:
            self.chaos.on_accept()
        self._flush_locked()
        global_collector().observe(
            "fabric.cell_wall_ms", float(timing.get("wall_ms") or 0.0)
        )

    def _flush_locked(self) -> None:
        """Write the grown canonical prefix through the store, unsynced."""
        cells = self._state.cells
        while (
            self._next_flush < len(cells)
            and cells[self._next_flush].status == "done"
        ):
            # settled and not buffered: flushed by a previous incarnation
            buffered = self._state.buffer.pop(self._next_flush, None)
            if buffered is not None:
                self.store.write(*buffered)
                tally(self._progress, buffered[0])
            self._next_flush += 1

    def _reap(self, now: float) -> None:
        """Reclaim expired leases and the leases of dead workers.

        A worker-dead reclaim also charges a *kill* to the suspect cell
        (the first one still leased, in canonical order -- workers run
        their lease in that order, so it is the cell the worker was most
        plausibly computing when it died).  The first death of each
        distinct worker name requeues the cell without burning retry
        budget -- the poison counter is its bound; repeat deaths of the
        same name fall through to the retry path so a respawning worker
        looping on one cell stays bounded either way.
        """
        cells = self._state.cells
        for lease, reason in self._table.reap(now):
            suspect = None
            if reason == "worker-dead":
                suspect = next(
                    (i for i in lease.cell_indices if cells[i].status == "leased"),
                    None,
                )
                if suspect is not None and not self._record_kill_locked(
                    suspect, self._worker_name(lease.worker_id), now
                ):
                    suspect = None  # a repeat killer: charge the retry
            for index in lease.cell_indices:
                if cells[index].status != "leased":
                    continue
                self._count("reclaims", worker_id=lease.worker_id)
                obs.event(
                    "fabric.reclaim_cell",
                    cell_id=cells[index].cell.cell_id,
                    worker_id=lease.worker_id,
                    reason=reason,
                )
                if index in self._state.audit or index == suspect:
                    # an audit re-execution that never arrived just waits
                    # for a different worker; the suspect paid with a kill
                    self._state.release(index, now)
                else:
                    self._retry_locked(
                        index,
                        now,
                        f"lease {lease.lease_id} reclaimed ({reason})",
                    )

    # ------------------------------------------------------------------
    # integrity, audit, quarantine, poison (call with the lock held)
    # ------------------------------------------------------------------
    def _worker_name(self, worker_id: str) -> str:
        """The stable name behind a per-epoch worker id (``w{n}-{name}``)."""
        stats = self._wstats.get(worker_id)
        if stats is not None:
            return stats["name"]
        return worker_id.split("-", 1)[1] if "-" in worker_id else worker_id

    def _integrity_ok_locked(
        self,
        state: CellState,
        record: Mapping[str, Any],
        integrity: Mapping[str, Any],
    ) -> bool:
        """Validate a submission's checksum + cell identity claims."""
        if str(integrity.get("record_sha256", "")) != record_checksum(record):
            return False
        return str(integrity.get("cell_hash", "")) == payload_identity_hash(
            state.payload
        )

    def _audit_selected(self, cell_id: str) -> bool:
        """Deterministic audit sampling: seeded on the cell id, so the
        same cells are audited however many times the campaign restarts."""
        if self.audit_fraction <= 0.0:
            return False
        if self.audit_fraction >= 1.0:
            return True
        draw = derive_seed("fabric-audit", self.audit_seed, cell_id)
        return (draw % 1_000_000) < self.audit_fraction * 1_000_000

    def _credit_locked(self, name: str) -> None:
        """Bump ``cells_done`` for the newest worker epoch of ``name``."""
        for stats in reversed(list(self._wstats.values())):
            if stats["name"] == name:
                stats["cells_done"] += 1
                return

    def _audit_submit_locked(
        self,
        index: int,
        worker_id: str,
        name: str,
        record: dict,
        timing: dict,
        now: float,
    ) -> tuple[str, dict]:
        """Fold one submission into the cell's audit candidate set;
        returns the submit span's outcome and the worker's reply."""
        cell_id = self._state.cells[index].cell.cell_id
        if record.get("status") == "timeout":
            # a timed-out (re-)execution is no evidence either way; the
            # cell keeps waiting for a conclusive run
            self._state.release(index, now)
            return "audit_inconclusive", {"accepted": True, "audit_pending": True}
        mine = self._state.candidate(index, name)
        if mine is not None:
            if mine["encoded"] == encode_record(record):
                # duplicate delivery of an already-held candidate
                self._count("duplicate_submits", worker_id=worker_id)
                return "duplicate", {"accepted": False, "duplicate": True,
                                     "audit_pending": True}
            # the worker contradicted its own earlier answer: whichever
            # copy is right, the worker is not trustworthy
            self._count("audit_mismatches", worker_id=worker_id)
            self._quarantine_locked(
                name, f"self-contradictory candidates on {cell_id}", now
            )
            return "quarantined", _refusal("audit")
        # journaled before the candidate counts: a restarted coordinator
        # re-derives the same verdict from the same candidate set
        self._commit(
            "audit_candidate",
            now,
            index=index,
            cell_id=cell_id,
            worker=name,
            record=record,
            timing=timing,
        )
        obs.event(
            "fabric.audit_candidate",
            cell_id=cell_id,
            worker=name,
            candidates=len(self._state.audit[index]),
        )
        losers = self._resolve_audit_locked(index, now)
        if losers is None:
            return "audit_pending", {"accepted": True, "audit_pending": True}
        if name in losers:
            return "quarantined", _refusal("audit")
        return "accepted", {"accepted": True, "audited": True}

    def _resolve_audit_locked(self, index: int, now: float) -> list[str] | None:
        """Settle a cell's audit once the candidate set is conclusive.

        Any two byte-identical candidates win -- a lying worker cannot
        outvote two honest runs of deterministic work -- and every
        non-matching candidate's worker is quarantined.  Three mutually
        distinct candidates mean nothing is corroborated: all three
        claimants are quarantined, which withdraws their candidates, and
        the cell recomputes from scratch.  Returns the quarantined names,
        or ``None`` while the set is still inconclusive.
        """
        candidates = self._state.audit[index]
        cell_id = self._state.cells[index].cell.cell_id
        votes = Counter(c["encoded"] for c in candidates)
        winner = next(
            (c for c in candidates if votes[c["encoded"]] > 1), None
        )
        if winner is not None:
            losers = [
                c["worker"] for c in candidates
                if c["encoded"] != winner["encoded"]
            ]
            self._count("audits_run")
            self._commit(
                "accept",
                now,
                index=index,
                cell_id=cell_id,
                lease_id=None,
                worker=winner["worker"],
                audited=True,
                record=winner["record"],
                timing=winner["timing"],
            )
            for candidate in candidates:
                if candidate["encoded"] == winner["encoded"]:
                    self._credit_locked(candidate["worker"])
            self._accepted_locked(winner["timing"])
            obs.event(
                "fabric.audit_confirmed",
                cell_id=cell_id,
                mismatches=len(losers),
            )
            reason = f"audit mismatch on {cell_id}"
        elif len(candidates) >= 3:
            losers = [c["worker"] for c in candidates]
            self._count("audits_run")
            obs.event("fabric.audit_deadlock", cell_id=cell_id)
            reason = f"three-way audit disagreement on {cell_id}"
        else:
            return None
        for loser in losers:
            self._count("audit_mismatches")
            self._quarantine_locked(loser, reason, now)
        return losers

    def _quarantine_locked(self, name: str, reason: str, now: float) -> None:
        """Stop trusting a worker *name*: journal the verdict (applying
        it drops the worker's audit candidates and retracts its buffered
        unaudited accepts so the cells re-run elsewhere), then requeue
        its in-flight leases."""
        if name in self._state.quarantined:
            return
        retracted = self._state.retractable(name)
        self._commit("quarantine", now, worker=name, reason=reason)
        self._count("quarantines")
        obs.event("fabric.quarantine", worker=name, reason=reason[:120])
        for index in retracted:
            obs.event(
                "fabric.retract_cell",
                cell_id=self._state.cells[index].cell.cell_id,
                worker=name,
            )
        for worker in self._table.workers():
            if worker.name == name:
                self._release_locked(
                    self._table.release_worker_leases(worker.worker_id), now
                )

    def _record_kill_locked(self, index: int, name: str, now: float) -> bool:
        """Charge a worker death against the cell it was computing.

        True when ``name`` is a *new* distinct killer for this cell (the
        caller then requeues without a retry charge); reaching
        ``poison_kill_threshold`` distinct killers poisons the cell.
        """
        state = self._state.cells[index]
        if state.status == "done" or name in state.killers:
            return False
        self._commit("kill", now, index=index, worker=name)
        self._count("kills")
        obs.event(
            "fabric.kill",
            cell_id=state.cell.cell_id,
            worker=name,
            distinct_killers=len(state.killers),
        )
        self._poison_locked(index, now)
        return True

    def _poison_locked(self, index: int, now: float) -> None:
        """Terminally record a cell once it has killed
        ``poison_kill_threshold`` distinct workers."""
        state = self._state.cells[index]
        if (
            state.status == "done"
            or len(state.killers) < self.poison_kill_threshold
        ):
            return
        killers = sorted(state.killers)
        self._give_up_locked(
            "poison",
            index,
            now,
            f"poisoned: killed {len(killers)} distinct workers "
            f"({', '.join(killers)})",
            killers=killers,
        )
        self._count("poisoned_cells")
        obs.event(
            "fabric.poison_cell",
            cell_id=state.cell.cell_id,
            killers=len(killers),
        )
