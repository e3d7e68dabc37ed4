"""The campaign fabric coordinator: decide, commit, effect.

The coordinator owns one campaign: it expands the spec, leases pending
cells to pull-based workers, tracks liveness through heartbeats, reclaims
the cells of dead or expired leases, retries transient failures after a
seeded :func:`~repro.errors.backoff`, escalates a timed-out cell once with
a larger budget, audits, quarantines and poisons, and folds submitted
shards through the unchanged :class:`~repro.campaign.store.RunStore` path.

Every entry point runs in one frame, :meth:`Coordinator._frame` (the lock,
one clock reading, the caller's proof of life, the reaper, ``done``), and
every request in it takes three steps:

1. **decide** -- a pure function over
   :class:`~repro.campaign.fabric.state.FabricState` returns the journal
   events the request causes (the lease window, a submission's verdict,
   the reap suspect, an audit's winner and losers, the poison threshold,
   a retry or a give-up);
2. **commit** -- :meth:`Coordinator._commit` appends each event to the
   write-ahead :class:`~repro.campaign.fabric.journal.FabricJournal`,
   fsynced *before* it is applied or acknowledged, applies it through the
   same ``FabricState.apply`` that recovery folds over the journal, and
   compacts when due;
3. **effect** -- ``_commit`` then fires the kind's volatile effects from
   one table keyed by journal kind (``_after_<kind>``): counters, worker
   tallies, ``fabric.*`` trace events, backoff, flushing, lease releases.

A restarted coordinator applies the same events read back from snapshot +
journal, so recovery cannot drift from the live path.  The journal is the
only file fsynced per record; ``results.jsonl`` and ``timings.jsonl`` are
its projection, synced once before each compaction.  Records are written
in canonical cell order whoever computed them, so an N-worker fleet's
``results.jsonl`` is byte-identical to the 1-worker run and to the pool
runner's, and every accept path is idempotent under at-least-once
delivery: the first copy of a deterministic result wins.

Result integrity: each submission carries a canonical-JSON sha256 of its
record and the leased payload's identity hash, checked before anything is
journaled; an ``audit_fraction`` of the cells (sampled, seeded on the cell
id) waits until a *different* worker's re-execution matches byte for byte.
Workers failing either are quarantined by name, and a cell that
``poison_kill_threshold`` distinct workers died computing is recorded as
poisoned instead of looping through the retry budget.
"""

from __future__ import annotations

import copy
import random
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import CampaignError, backoff
from repro.obs import trace as obs
from repro.campaign.fabric.journal import FabricJournal
from repro.campaign.fabric.leases import Lease, LeaseTable
from repro.campaign.fabric.state import FabricState
from repro.campaign.spec import CampaignSpec, derive_seed
from repro.campaign.store import RunStore, encode_record, tally

#: Seconds between :meth:`Coordinator.wait`'s completion checks.
WAIT_POLL_S = 0.05
#: A transiently failed cell's backoff before it is leased again; the
#: jitter's RNG is seeded, so one fault history gives one due time.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
JITTER_SEED = 0

#: Fabric counter names (``status()``, ``telemetry()``; ``GET /metrics``
#: renders them from ``telemetry()``).
COUNTERS = (
    "leases_granted", "cells_leased", "reclaims", "retries", "escalations",
    "duplicate_submits", "stale_submits", "transient_failures", "deregisters",
    "journal_records", "journal_compactions", "integrity_rejects",
    "audits_run", "audit_mismatches", "quarantines", "kills", "poisoned_cells", "recovered_buffered", "recovered_retries",
    "recovered_escalations", "recovered_leases_expired",
    "recovered_quarantines", "recovered_audit_candidates",
)


def _refusal(reason: str) -> dict:
    """The reply to a submission a quarantine verdict rules out."""
    return {"accepted": False, "rejected": True, "reason": reason,
            "quarantined": True}


_PENDING = {"accepted": True, "audit_pending": True}
#: A submission's verdict (``FabricState.submission``, then the audit's)
#: -> the ``fabric.submit`` span's outcome and the worker's reply.
SUBMISSIONS = {
    "refused": ("quarantined", _refusal("quarantined")),
    "rejected": ("rejected", _refusal("integrity")),
    "duplicate": ("duplicate", {"accepted": False, "duplicate": True}),
    "held": ("duplicate", {"accepted": False, "duplicate": True,
                           "audit_pending": True}),
    "contradicted": ("quarantined", _refusal("audit")),
    "outvoted": ("quarantined", _refusal("audit")),
    "inconclusive": ("audit_inconclusive", _PENDING),
    "candidate": ("audit_pending", _PENDING),
    "audited": ("accepted", {"accepted": True, "audited": True}),
    "escalated": ("escalated", {"accepted": True, "escalated": True}),
    "accepted": ("accepted", {"accepted": True, "duplicate": False}),
}


class Coordinator:
    """Lease/heartbeat/submit service for one campaign's worker fleet."""

    def __init__(
        self,
        spec: CampaignSpec,
        root: str = "campaign-runs",
        store: RunStore | None = None,
        *,
        lease_ttl_s: float = 10.0,
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float | None = None,
        lease_cells: int = 4,
        max_transient_retries: int = 3,
        escalation_factor: float = 4.0,
        journal_compact_every: int = 256,
        audit_fraction: float = 0.0,
        audit_seed: int = 0,
        poison_kill_threshold: int = 3,
        clock=time.monotonic,
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
        #: ``0`` disables timeout escalation entirely.
        self.escalation_factor = float(escalation_factor)
        #: Fraction of accepted cells held back for audit re-execution by
        #: a different worker (``0`` disables auditing; ``1`` audits all).
        self.audit_fraction = max(0.0, min(1.0, float(audit_fraction)))
        self.audit_seed = int(audit_seed)
        #: Distinct dead workers before a cell is declared poisoned.
        self.poison_kill_threshold = max(1, int(poison_kill_threshold))
        self._clock = clock
        self._rng = random.Random(JITTER_SEED)
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}

        cells = spec.expand()
        self.store.initialize(spec, n_cells=len(cells))
        flushed = self.store.records()
        completed = {record["id"] for record in flushed}
        #: ``store.status()``, kept current by ``_flush``
        self._progress = self.store.status(flushed)
        #: Everything that survives a crash; changed only by ``_commit``
        #: (live) and ``_recover`` (replay), both through ``apply``.
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
        self._table = LeaseTable(self.lease_ttl_s, self.heartbeat_timeout_s)
        self._journal = FabricJournal(
            self.store.directory, compact_every=journal_compact_every,
        )
        self._recover()

    # ------------------------------------------------------------------
    # crash recovery (constructor-time; nothing else holds the state yet)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
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
                    self._flush()
                if event["kind"] == "lease":
                    for index in event["cells"]:
                        holder[index] = (event["lease_id"], event["worker_id"])
            readmitted = [*range(found, self._next_flush), *sorted(state.buffer)]
            # the lease table is rebuilt empty: whatever is still leased
            # was held by a lease that died with the old coordinator
            expired = {
                lease for index, lease in holder.items()
                if state.release(index, 0.0)
            }
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
                if value:
                    self._count(name, value)
            for index in readmitted:
                # the accept's span may have died unwritten with the old
                # coordinator; this event is the durable trace of the settlement
                obs.event("fabric.recovered_cell",
                          cell_id=state.cells[index].cell.cell_id)
            for lease_id, worker_id in sorted(expired):
                obs.event("fabric.lease_expired_on_recovery",
                          lease_id=lease_id, worker_id=worker_id)
            # a crash can land between a journaled kill (reaching the
            # poison threshold) and the poison record itself, or between
            # a matching audit candidate and its accept -- settle both
            for index in range(len(state.cells)):
                self._commit(state.poison(index, self.poison_kill_threshold), 0.0)
            for index in list(state.audit):
                if index in state.audit:
                    self._settle_audit(index, 0.0)
            span.set_attrs(**recovered, journal_records=len(records))
            obs.event(
                "fabric.recovered",
                campaign=self.spec.campaign_id,
                buffered=recovered["recovered_buffered"],
                leases_expired=recovered["recovered_leases_expired"],
            )
            # fold everything recovered into a fresh snapshot so the
            # journal starts this incarnation bounded and empty
            self._compact()

    # ------------------------------------------------------------------
    # the frame, the commit, the compaction
    # ------------------------------------------------------------------
    def _frame(
        self, act: Callable[[float, bool], Any], worker_id: str | None = None,
        *, reap: str | None = "before", done: bool = True,
    ) -> Any:
        """Run one entry point: under the lock, one clock reading, the
        calling worker's proof of life (``act`` learns whether it is a
        live worker), the reaper -- ``"before"`` the verb decides, or
        ``"after"`` a submission has released its own cells -- and,
        unless the reply says otherwise, whether the campaign is done."""
        with self._lock:
            now = self._clock()
            known = worker_id is not None and self._table.touch(worker_id, now)
            if reap == "before":
                self._reap(now)
            reply = act(now, known)
            if reap == "after":
                self._reap(now)
            if done:
                reply.setdefault("done", self._finished())
            return reply

    def _commit(self, events: list[dict], now: float, by: str | None = None) -> None:
        """Make decided transitions durable, real, then seen.

        The only way a live coordinator changes durable state: each event
        is journaled (on disk before ``append`` returns) and applied by
        the function recovery folds over the journal -- so the state is
        the fold of the events so far after every one, and any of them
        may be the one that compacts the journal -- and only then does
        the effect table fire for it.  ``by`` is the id of the worker
        whose request caused the events.
        """
        for event in events:
            self._journal.append(**event)
            self._count("journal_records")
            applied = self._state.apply(event, now)
            if self._journal.due_for_compaction:
                self._compact()
            # by name: a stored table of bound methods would be a cycle
            getattr(self, f"_after_{event['kind']}")(event, now, by, applied)

    def _compact(self) -> None:
        with obs.span(
            "fabric.journal.compact", campaign=self.spec.campaign_id
        ) as span:
            events = self._state.snapshot_events()
            # last, so no budget event above re-opens a leased cell
            events.extend(
                {"kind": "lease", "lease_id": lease.lease_id,
                 "worker_id": lease.worker_id,
                 "cells": list(lease.cell_indices)}
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
        name = dict(body or {}).get("name", "worker")
        if not isinstance(name, str) or not name:
            # an empty name could never be quarantined
            raise CampaignError(
                f"fabric register needs 'name': a non-empty string, got {name!r}"
            )

        def act(now: float, known: bool) -> dict:
            worker = self._table.register_worker(name, now)
            obs.event("fabric.register", worker_id=worker.worker_id, worker=name)
            return {
                "worker_id": worker.worker_id,
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "lease_cells": self.lease_cells,
                "quarantined": name in self._state.quarantined,
            }

        return self._frame(act, reap=None, done=False)

    def heartbeat(self, worker_id: str) -> dict:
        return self._frame(
            lambda now, known: {"ok": known, "unknown_worker": not known},
            worker_id,
        )

    def lease(self, worker_id: str, max_cells: int | None = None) -> dict:
        """Grant up to ``max_cells`` eligible pending cells (canonical
        order).  ``done`` tells an idle worker the campaign is complete;
        ``quarantined`` outranks it (the audit that quarantines a name may
        settle the last cell); ``retry_after_s`` says when to ask again."""
        limit = self.lease_cells if max_cells is None else max(1, int(max_cells))

        def act(now: float, known: bool) -> dict:
            if not known:  # and nothing reaped on its account
                return {"unknown_worker": True, "cells": [], "done": False}
            self._reap(now)
            name, state = self._table.name(worker_id), self._state
            if name in state.quarantined:
                return {"cells": [], "quarantined": True,
                        "retry_after_s": self.heartbeat_interval_s}
            if self._finished():
                return {"cells": [], "done": True}
            indices = state.lease_window(self._next_flush, limit, now, name)
            if not indices:
                return {"cells": [], "retry_after_s": state.retry_after(
                    self._next_flush, now, self.heartbeat_interval_s)}
            lease = self._table.grant(worker_id, indices, now)
            # journaled before the grant is acknowledged: a recovered
            # coordinator expires it, so the cells re-lease cleanly
            self._commit([{"kind": "lease", "lease_id": lease.lease_id,
                           "worker_id": worker_id, "cells": indices}], now)
            return {"lease_id": lease.lease_id,
                    "cells": [dict(state.cells[i].payload) for i in indices]}

        return self._frame(act, worker_id, reap=None)

    def submit(
        self, worker_id: str, lease_id: str, cell_id: str,
        record: Mapping[str, Any], timing: Mapping[str, Any],
        integrity: Mapping[str, Any],
    ) -> dict:
        """Fold one finished cell; idempotent under at-least-once delivery.

        ``integrity`` carries ``record_sha256`` -- the canonical-JSON
        checksum of the record -- and ``cell_hash`` -- the leased
        payload's identity hash; a mismatch rejects the submission
        *before* journaling and quarantines the submitter.  A submission
        without it is malformed (:class:`CampaignError`), not hostile.
        """

        def act(now: float, known: bool) -> dict:
            if not isinstance(integrity, Mapping):
                # omitting the sidecar must not be a way round the check
                raise CampaignError(
                    f"submission for cell {cell_id!r} carries no 'integrity'"
                )
            with obs.span("fabric.submit", cell_id=cell_id,
                          worker_id=worker_id) as span:
                index = self._by_id.get(cell_id)
                if index is None:
                    raise CampaignError(f"unknown cell {cell_id!r}")
                name = self._table.name(worker_id)
                fields = dict(record)
                verdict, events = self._state.submission(
                    index, name, lease_id, fields, dict(timing),
                    integrity, sampled=self._audit_selected(cell_id),
                    escalation_factor=self.escalation_factor,
                )
                if verdict == "rejected":
                    self._count("integrity_rejects", worker_id=worker_id)
                    obs.event("fabric.integrity_reject", cell_id=cell_id,
                              worker_id=worker_id)
                elif verdict != "refused":
                    fresh_lease = self._table.release_cell(lease_id, index)
                    span.set_attrs(stale=not fresh_lease)
                    if not fresh_lease:
                        self._count("stale_submits", worker_id=worker_id)
                    worker = self._table.worker(worker_id)
                    timed_out = fields.get("status") == "timeout"
                    if worker and timed_out and verdict != "duplicate":
                        worker.tallies["timeouts"] += 1
                if verdict in ("duplicate", "held"):
                    self._count("duplicate_submits", worker_id=worker_id)
                elif verdict == "contradicted":
                    # whichever copy is right, the worker is not trustworthy
                    self._count("audit_mismatches")
                elif verdict == "inconclusive":
                    # the cell waits for a conclusive run
                    self._state.release(index, now)
                # write-ahead: an accept is durable before the worker hears
                # "accepted", so a crash after this line can never re-run
                # the cell -- recovery re-admits the journaled record instead
                self._commit(events, now, worker_id)
                if verdict == "candidate":
                    losers = self._settle_audit(index, now)
                    if losers is not None:
                        verdict = "outvoted" if name in losers else "audited"
                outcome, reply = SUBMISSIONS[verdict]
                span.set_attrs(outcome=outcome)
                return dict(reply)

        return self._frame(act, worker_id, reap="after")

    def fail(
        self, worker_id: str, lease_id: str, cell_id: str, detail: str = "",
    ) -> dict:
        """A worker reports a *transient* (infrastructure-level) failure.

        Deterministic outcomes -- scheduler errors, infeasibility,
        timeouts -- are captured inside the cell record by ``run_cell``
        and submitted normally; this path is for the machinery around it
        failing.  Bounded retry with backoff, then a terminal error
        record so the campaign always completes.  A draining worker does
        not ``fail`` its unstarted cells: ``deregister`` hands them back.
        A report under a lease that no longer holds the cell (reaped,
        expired, lost in a restart) is ``stale`` and changes nothing: the
        reclaim already charged the cell, which may be someone else's by
        now.
        """

        def act(now: float, known: bool) -> dict:
            index = self._by_id.get(cell_id)
            if index is None:
                raise CampaignError(f"unknown cell {cell_id!r}")
            if not self._table.holds(lease_id, index):
                return {"retried": False, "stale": True}
            self._table.release_cell(lease_id, index)
            obs.event("fabric.fail_cell", cell_id=cell_id, worker_id=worker_id,
                      detail=detail[:120])
            self._count("transient_failures", worker_id=worker_id)
            return {"retried": self._retry(index, now, f"transient: {detail}")}

        return self._frame(act, worker_id, reap=None)

    def deregister(self, worker_id: str) -> dict:
        """A worker says goodbye (graceful drain / clean shutdown): the
        cells still on its leases go back to the pool at once -- no
        attempt bump, no backoff, no waiting for the TTL -- and it is
        marked dead, tallies kept."""

        def act(now: float, known: bool) -> dict:
            leases = self._table.deregister_worker(worker_id)
            handed_back = self._release(leases, now)
            self._count("deregisters")
            obs.event("fabric.deregister", worker_id=worker_id,
                      requeued=handed_back)
            return {"ok": True, "requeued": handed_back}

        return self._frame(act, reap=None)

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def campaign_id(self) -> str:
        return self.spec.campaign_id

    @property
    def finished(self) -> bool:
        return self._frame(lambda now, known: self._finished(), done=False)

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the campaign completes; False on timeout."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not self.finished:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(WAIT_POLL_S)
        return True

    def close(self) -> None:
        self.store.sync()
        self.store.close()
        self._journal.close()

    def status(self) -> dict:
        """Store progress counters plus the fabric's own."""

        def act(now: float, known: bool) -> dict:
            data = copy.deepcopy(self._progress)
            for record, _ in self._state.buffer.values():
                tally(data, record)
            shared = self._overview()
            data["fabric"] = {
                **shared.pop("counters"),
                "workers": sum(w.alive for w in self._table.workers()),
                "active_leases": len(self._table.leases()),
                "buffered": len(self._state.buffer),
                **shared,
            }
            return data

        return self._frame(act, done=False)

    def telemetry(self) -> dict:
        """Live per-worker view for ``campaign status --watch``.

        Workers that died (SIGKILL, reaped heartbeat) stay listed with
        ``alive: false`` -- their tallies are part of the campaign's
        story.  Rates use the coordinator's clock, so an injected test
        clock yields deterministic numbers.
        """

        def act(now: float, known: bool) -> dict:
            leases = self._table.leases()
            workers = []
            for worker in self._table.workers():
                mine = [l for l in leases if l.worker_id == worker.worker_id]
                active_s = max(now - worker.registered_at, 1e-9)
                workers.append({
                    "worker_id": worker.worker_id,
                    "name": worker.name,
                    "alive": worker.alive,
                    "last_seen_age_s": (round(now - worker.last_seen, 3)
                                        if worker.alive else None),
                    **worker.tallies,
                    "cells_per_s": round(
                        worker.tallies["cells_done"] / active_s, 3),
                    "in_flight": sum(len(l.cell_indices) for l in mine),
                    "lease_ages_s": sorted(
                        round(now - l.granted_at, 3) for l in mine),
                    "quarantined": worker.name in self._state.quarantined,
                })
            workers.sort(key=lambda w: w["worker_id"])
            shared = self._overview()
            total = len(self._state.cells)
            return {
                "campaign": self.spec.campaign_id,
                "total": total,
                "done": total - shared["pending"],
                "finished": self._finished(),
                "uptime_s": round(now - self._started_at, 3),
                **shared,
                "workers": workers,
            }

        return self._frame(act, done=False)

    # ------------------------------------------------------------------
    # internals (called inside the frame)
    # ------------------------------------------------------------------
    def _overview(self) -> dict:
        """What ``status()`` and ``telemetry()`` both report, read once."""
        state = self._state
        return {
            "counters": dict(self.counters),
            "pending": len(state.cells) - self._next_flush - len(state.buffer),
            "audits_pending": len(state.audit),
            "quarantined_workers": sorted(state.quarantined),
        }

    def _finished(self) -> bool:
        return (
            self._next_flush == len(self._state.cells)
            and not self._state.buffer
        )

    def _count(self, name: str, by: int = 1, worker_id: str | None = None) -> None:
        """Bump a fabric counter and, when given a worker, that worker's
        tally of the same name, if it keeps one."""
        self.counters[name] += by
        worker = self._table.worker(worker_id)
        if worker is not None and name in worker.tallies:
            worker.tallies[name] += by

    def _release(self, leases: list[Lease], now: float) -> int:
        """Hand the still-leased cells of removed leases straight back to
        the pool (clean drain, quarantine: nothing failed, so no attempt
        bump and no backoff); returns how many."""
        return sum(
            self._state.release(index, now)
            for lease in leases
            for index in lease.cell_indices
        )

    def _retry(self, index: int, now: float, detail: str) -> bool:
        """Put a transiently failed/reclaimed cell back with backoff, or
        give up on it; True when it went back."""
        events = self._state.retry(index, self.max_transient_retries, detail)
        self._commit(events, now)
        return bool(events) and events[0]["kind"] == "retry"

    def _settle_audit(self, index: int, now: float) -> list[str] | None:
        """Commit the audit verdict on a cell once it is conclusive;
        returns the quarantined names, or ``None`` while it is not."""
        verdict = self._state.audit_verdict(index)
        if verdict is None:
            return None
        losers, events = verdict
        self._count("audits_run")
        if not events or events[0]["kind"] != "accept":
            obs.event("fabric.audit_deadlock",
                      cell_id=self._state.cells[index].cell.cell_id)
        self._commit(events, now)
        if losers:
            self._count("audit_mismatches", len(losers))
        return losers

    def _audit_selected(self, cell_id: str) -> bool:
        """Deterministic audit sampling: seeded on the cell id, so the
        same cells are audited however many times the campaign restarts."""
        if self.audit_fraction <= 0.0:
            return False
        if self.audit_fraction >= 1.0:
            return True
        draw = derive_seed("fabric-audit", self.audit_seed, cell_id)
        return (draw % 1_000_000) < self.audit_fraction * 1_000_000

    def _flush(self) -> None:
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
        """Reclaim expired leases and the leases of dead workers: a cell
        still leased retries, except the suspect a death was charged to
        (``FabricState.death``) and an audit re-execution that never
        arrived, which just waits for a different worker."""
        state = self._state
        for lease, reason in self._table.reap(now):
            suspect = None
            if reason == "worker-dead":
                suspect, kill = state.death(
                    lease.cell_indices, self._table.name(lease.worker_id)
                )
                self._commit(kill, now)
                if suspect is not None:
                    threshold = self.poison_kill_threshold
                    self._commit(state.poison(suspect, threshold), now)
            for index in lease.cell_indices:
                if state.cells[index].status != "leased":
                    continue
                self._count("reclaims")
                obs.event("fabric.reclaim_cell",
                          cell_id=state.cells[index].cell.cell_id,
                          worker_id=lease.worker_id, reason=reason)
                if index in state.audit or index == suspect:
                    state.release(index, now)
                else:
                    detail = f"lease {lease.lease_id} reclaimed ({reason})"
                    self._retry(index, now, detail)

    # ------------------------------------------------------------------
    # the effect table, one ``_after_<kind>(event, now, by, applied)``
    # per journal kind, fired by ``_commit`` (never by a replay, which
    # must not count or trace twice): ``by`` is the worker id whose
    # request caused the event, ``applied`` what ``FabricState.apply``
    # returned for it
    # ------------------------------------------------------------------
    def _cell_id(self, event: Mapping[str, Any]) -> str:
        return self._state.cells[event["index"]].cell.cell_id

    def _after_lease(self, event, now, by, applied) -> None:
        worker_id = event["worker_id"]
        for index in event["cells"]:
            obs.event("fabric.lease_cell",
                      cell_id=self._state.cells[index].cell.cell_id,
                      worker_id=worker_id, lease_id=event["lease_id"])
        self._count("leases_granted")
        self._count("cells_leased", len(event["cells"]), worker_id)

    def _after_accept(self, event, now, by, held) -> None:
        """Credit the work, flush, and for an audit report the verdict:
        ``held`` are the candidates the accept settled."""
        if event.get("audited"):
            won = encode_record(event["record"])
            names = [c["worker"] for c in held if c["encoded"] == won]
            # each run that matched, to the newest epoch of its name
            credited = [(self._table.named(n) or [None])[-1] for n in names]
        else:
            credited = [self._table.worker(by)]
        for worker in credited:
            if worker is not None:
                worker.tallies["cells_done"] += 1
        self._flush()
        if event.get("audited"):
            obs.event("fabric.audit_confirmed", cell_id=event["cell_id"],
                      mismatches=len(held) - len(names))

    def _after_terminal(self, event, now, by, applied) -> None:
        self._flush()
        # written when one more attempt would exceed the budget; settling
        # leaves the count of those made as it was
        attempts = self._state.cells[event["index"]].attempts + 1
        obs.event("fabric.terminal_error", cell_id=event["cell_id"],
                  attempts=attempts)

    def _after_poison(self, event, now, by, applied) -> None:
        self._flush()
        self._count("poisoned_cells")
        obs.event("fabric.poison_cell", cell_id=event["cell_id"],
                  killers=len(event["killers"]))

    def _after_retry(self, event, now, by, applied) -> None:
        attempts = event["attempts"]
        cell = self._state.cells[event["index"]]
        cell.eligible_at = now + backoff(
            max(0, attempts - 1), BACKOFF_BASE_S, BACKOFF_CAP_S, self._rng)
        self._count("retries")
        obs.event("fabric.retry_cell", cell_id=self._cell_id(event),
                  attempts=attempts)

    def _after_escalate(self, event, now, by, applied) -> None:
        self._count("escalations")
        worker = self._table.worker(by)
        if worker is not None:
            worker.tallies["escalations"] += 1
        obs.event("fabric.escalate_cell", cell_id=self._cell_id(event),
                  timeout_s=event["timeout_s"])

    def _after_audit_candidate(self, event, now, by, applied) -> None:
        obs.event("fabric.audit_candidate", cell_id=event["cell_id"],
                  worker=event["worker"],
                  candidates=len(self._state.audit[event["index"]]))

    def _after_quarantine(self, event, now, by, retracted) -> None:
        """Report the retracted accepts and hand back the in-flight
        leases of every epoch of the name."""
        name = event["worker"]
        self._count("quarantines")
        obs.event("fabric.quarantine", worker=name, reason=event["reason"][:120])
        for index in retracted:
            obs.event("fabric.retract_cell",
                      cell_id=self._state.cells[index].cell.cell_id,
                      worker=name)
        for worker in self._table.named(name):
            self._release(self._table.release_worker_leases(worker.worker_id), now)

    def _after_kill(self, event, now, by, applied) -> None:
        self._count("kills")
        obs.event("fabric.kill", cell_id=self._cell_id(event),
                  worker=event["worker"],
                  distinct_killers=len(self._state.cells[event["index"]].killers))
