"""Worker registry and lease table for the campaign fabric.

The coordinator hands out *leases*: a worker takes temporary ownership of
a batch of cells, bounded by a TTL.  Liveness is tracked per worker --
every RPC a worker makes (heartbeat, lease, submit, fail) counts as proof
of life and extends that worker's leases -- so a worker that is alive but
slow keeps its work, while a SIGKILLed or wedged worker stops making
requests, its heartbeat ages out, and :meth:`LeaseTable.reap` returns its
leases for the coordinator to reclaim.

Extensions are bounded: a lease can only be refreshed up to
:data:`HARD_TTL_FACTOR` times its TTL past the grant.  Without the cap, a
worker that silently lost a result on the wire but keeps heartbeating
(it believes the submit landed) would hold its cell leased forever and
the campaign would never finish.  Reclaiming under a live worker is safe
-- the coordinator's accept path is idempotent, so the worst case is
duplicate work, never duplicate records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

#: A lease's refreshes end this many TTLs after its grant.
HARD_TTL_FACTOR = 8.0


@dataclass
class Lease:
    """Temporary ownership of a batch of cell indices by one worker."""

    lease_id: str
    worker_id: str
    cell_indices: list[int]
    granted_at: float
    expires_at: float
    #: refreshes never push ``expires_at`` past this point
    max_expires_at: float = float("inf")


#: the per-worker tallies ``Coordinator.telemetry()`` reports; a fabric
#: counter of the same name bumped for a worker bumps its tally too
TALLIES = (
    "cells_leased", "cells_done", "timeouts", "escalations",
    "transient_failures", "stale_submits", "duplicate_submits",
    "integrity_rejects",
)


@dataclass
class WorkerState:
    """One registered worker epoch: its liveness, and what it did.

    Kept with ``alive=False`` after the worker dies or deregisters: a
    SIGKILLed worker's tallies are part of the campaign's story.
    """

    worker_id: str
    name: str
    registered_at: float
    last_seen: float
    alive: bool = True
    tallies: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TALLIES, 0))


class LeaseTable:
    """Registration, liveness, and lease-TTL bookkeeping (no cell logic)."""

    def __init__(self, lease_ttl_s: float, heartbeat_timeout_s: float) -> None:
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        #: every epoch ever registered, dead ones included
        self._workers: dict[str, WorkerState] = {}
        self._leases: dict[str, Lease] = {}
        self._worker_seq = itertools.count(1)
        self._lease_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def register_worker(self, name: str, now: float) -> WorkerState:
        worker_id = f"w{next(self._worker_seq)}-{name}"
        state = WorkerState(worker_id, name, registered_at=now, last_seen=now)
        self._workers[worker_id] = state
        return state

    def worker(self, worker_id: str | None) -> WorkerState | None:
        """The record of an id this table issued, dead or alive."""
        return self._workers.get(worker_id)

    def name(self, worker_id: str) -> str:
        """The name behind a worker id.  An id this table never issued --
        a previous coordinator's, held by a worker that has not noticed
        the restart -- still carries it (``w{n}-{name}``), so a
        quarantine by name holds across restarts."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            return worker.name
        return worker_id.partition("-")[2] or worker_id

    def named(self, name: str) -> list[WorkerState]:
        """Every epoch registered under ``name``, oldest first."""
        return [w for w in self._workers.values() if w.name == name]

    def touch(self, worker_id: str, now: float) -> bool:
        """Record proof of life; extends the worker's leases.  False when
        the worker is unknown (never registered, reaped or deregistered)."""
        state = self._workers.get(worker_id)
        if state is None or not state.alive:
            return False
        state.last_seen = now
        for lease in self._leases.values():
            if lease.worker_id == worker_id:
                lease.expires_at = min(
                    now + self.lease_ttl_s, lease.max_expires_at
                )
        return True

    def deregister_worker(self, worker_id: str) -> list[Lease]:
        """Retire a worker on its own request (graceful drain) and return
        its leases so the coordinator can reopen the cells immediately
        instead of waiting for the TTL to expire.  Unknown workers (never
        registered, already reaped) simply return no leases."""
        state = self._workers.get(worker_id)
        if state is not None:
            state.alive = False
        return self.release_worker_leases(worker_id)

    def release_worker_leases(self, worker_id: str) -> list[Lease]:
        """Remove and return a worker's leases, keeping it registered.

        Quarantine path: the worker stays known (its heartbeats remain
        answerable, its lease requests get the quarantined reply) but its
        in-flight cells go back to the pool immediately."""
        released = [
            lease
            for lease in self._leases.values()
            if lease.worker_id == worker_id
        ]
        for lease in released:
            del self._leases[lease.lease_id]
        return released

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, cell_indices: list[int], now: float) -> Lease:
        if worker_id not in self._workers:
            raise KeyError(worker_id)
        lease = Lease(
            lease_id=f"l{next(self._lease_seq)}",
            worker_id=worker_id,
            cell_indices=list(cell_indices),
            granted_at=now,
            expires_at=now + self.lease_ttl_s,
            max_expires_at=now + self.lease_ttl_s * HARD_TTL_FACTOR,
        )
        self._leases[lease.lease_id] = lease
        return lease

    def holds(self, lease_id: str, cell_index: int) -> bool:
        """Whether a live lease still holds the cell."""
        lease = self._leases.get(lease_id)
        return lease is not None and cell_index in lease.cell_indices

    def release_cell(self, lease_id: str, cell_index: int) -> bool:
        """Drop one finished cell from its lease (lease removed when
        empty).  False when the lease no longer exists -- a stale submit
        after a reclaim."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        if cell_index in lease.cell_indices:
            lease.cell_indices.remove(cell_index)
        if not lease.cell_indices:
            del self._leases[lease.lease_id]
        return True

    def reap(self, now: float) -> list[tuple[Lease, str]]:
        """Remove and return (lease, reason) for every expired lease and
        every lease owned by a worker whose heartbeat aged out; such
        workers are marked dead."""
        dead = [
            worker_id
            for worker_id, state in self._workers.items()
            if state.alive and now - state.last_seen > self.heartbeat_timeout_s
        ]
        reclaimed: list[tuple[Lease, str]] = []
        for lease in list(self._leases.values()):
            if lease.worker_id in dead:
                reclaimed.append((lease, "worker-dead"))
                del self._leases[lease.lease_id]
            elif lease.expires_at <= now:
                reclaimed.append((lease, "lease-expired"))
                del self._leases[lease.lease_id]
        for worker_id in dead:
            self._workers[worker_id].alive = False
        return reclaimed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def leases(self) -> list[Lease]:
        return list(self._leases.values())

    def workers(self) -> list[WorkerState]:
        """Every epoch ever registered (``alive`` says which still are)."""
        return list(self._workers.values())
