"""Generated fault interleavings against the event-sourced coordinator.

A hypothesis state machine plays a small fleet -- workers registering,
leasing, submitting honest / duplicate / stale / corrupted / lying /
timed-out records, failing and requeueing cells, dying of heartbeat
timeout, deregistering -- and SIGKILLs the coordinator at arbitrary points
with compaction forced on either side of the crash.  After *every* step:

* ``results.jsonl`` is a canonical prefix with no cell twice;
* no open cell's retry count or killer set ever shrinks;
* a fresh ``Coordinator`` over a copy of the run directory recovers the
  very state the live one is in -- replay is the live path, checked here
  rather than argued.

Deterministic: derandomized hypothesis, injected clock, seeded jitter.
"""

import json
import shutil
import tempfile

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.campaign import CampaignSpec
from repro.campaign.fabric import Coordinator
from repro.campaign.runner import run_cell
from repro.campaign.spec import payload_identity_hash
from repro.campaign.store import record_checksum

SPEC = CampaignSpec.from_dict({
    "name": "fabsm",
    "seed": 5,
    "timeout_s": 30,
    "families": [{"family": "reversal", "sizes": [4, 6]}],
    "schedulers": ["peacock", "greedy-slf", "oneshot"],
})
CELL_IDS = [cell.cell_id for cell in SPEC.expand()]
NAMES = ("ann", "bob", "cat", "dan")
NEVER = 10**9
HEARTBEAT_TIMEOUT_S = 5.0
RECENT = 4

_honest: dict[str, tuple[dict, dict]] = {}


def honest(payload):
    """The deterministic result of a cell, computed once per session."""
    cell_id = payload["cell_id"]
    if cell_id not in _honest:
        _honest[cell_id] = run_cell(payload)
    record, timing = _honest[cell_id]
    return dict(record), dict(timing)


def durable(coordinator):
    """What a restart must get back, with lease-ness (which never
    survives one) and flushed cells' bookkeeping (which no longer
    matters) normalised away."""
    state = coordinator._state
    cells = []
    for index, cell in enumerate(state.cells):
        if cell.status == "done" and index not in state.buffer:
            cells.append("flushed")
            continue
        status = cell.status
        if status == "leased":
            status = "audit" if index in state.audit else "pending"
        cells.append((
            status, cell.attempts, cell.escalated, cell.payload,
            sorted(cell.killers), cell.poisoned, cell.accepted_by,
            cell.audited,
        ))
    return {
        "cells": cells,
        "buffer": dict(state.buffer),
        "audit": dict(state.audit),
        "quarantined": sorted(state.quarantined),
        "results": coordinator.store.results_bytes(),
    }


class FabricMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="fabsm-")
        self.now = 0.0
        self.workers: list[str] = []
        #: every grant handed out, live, settled or long reclaimed (a
        #: rule picks among the last ``RECENT``)
        self.grants: list[tuple[str, str, list[dict]]] = []
        self.floor: dict[int, tuple[int, set]] = {}
        self.coordinator = self._open(NEVER)

    def _open(self, compact_every, root=None):
        return Coordinator(
            SPEC,
            root=root or self.root,
            clock=lambda: self.now,
            journal_fsync=False,
            journal_compact_every=compact_every,
            lease_ttl_s=10.0,
            lease_hard_ttl_factor=2.0,
            heartbeat_interval_s=1.0,
            heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S,
            lease_cells=2,
            max_transient_retries=2,
            backoff_base_s=0.5,
            backoff_cap_s=2.0,
            audit_fraction=0.5,
            poison_kill_threshold=2,
        )

    def teardown(self):
        self.coordinator.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    @initialize()
    def fleet(self):
        """Start with a fleet, so short examples get to the point."""
        for name in NAMES[:3]:
            self.register(name)

    @rule(name=st.sampled_from(NAMES))
    def register(self, name):
        reply = self.coordinator.register({"name": name})
        self.workers.append(reply["worker_id"])

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), max_cells=st.integers(1, 3))
    def lease(self, data, max_cells):
        worker_id = data.draw(st.sampled_from(self.workers))
        reply = self.coordinator.lease(worker_id, max_cells)
        if reply["cells"]:
            self.grants.append((worker_id, reply["lease_id"], reply["cells"]))

    @precondition(lambda self: self.grants)
    @rule(
        data=st.data(),
        mode=st.sampled_from(
            ["honest", "honest", "honest", "corrupt", "lie", "timeout"]
        ),
    )
    def submit(self, data, mode):
        """Fresh, duplicate or stale (the grant may be settled, reclaimed
        or from a dead incarnation), and honest or not."""
        worker_id, lease_id, cells = data.draw(st.sampled_from(self.grants[-RECENT:]))
        payload = data.draw(st.sampled_from(cells))
        record, timing = honest(payload)
        if mode == "lie":
            record["touches"] = (record["touches"] or 0) + 1
        elif mode == "timeout":
            record.update(
                status="timeout", rounds=None, touches=None, verified=None
            )
        integrity = {
            "record_sha256": record_checksum(record),
            "cell_hash": payload_identity_hash(payload),
        }
        if mode == "corrupt":
            integrity["record_sha256"] = "0" * 64
        self.coordinator.submit(
            worker_id, lease_id, payload["cell_id"], record, timing, integrity
        )

    @precondition(lambda self: self.grants)
    @rule(data=st.data(), requeue=st.booleans())
    def fail(self, data, requeue):
        worker_id, lease_id, cells = data.draw(st.sampled_from(self.grants[-RECENT:]))
        payload = data.draw(st.sampled_from(cells))
        self.coordinator.fail(
            worker_id, lease_id, payload["cell_id"], "boom", requeue=requeue
        )

    @rule(
        dt=st.sampled_from([0.6, HEARTBEAT_TIMEOUT_S + 1.0, 25.0]),
        silent=st.sets(st.sampled_from(NAMES)),
    )
    def advance(self, dt, silent):
        """Time passes: backoffs elapse, leases hit their hard TTL, and
        the workers named ``silent`` miss their heartbeats (the others
        beat first; a beat also runs the reaper)."""
        self.now += dt
        for worker_id in self.workers:
            if worker_id.split("-", 1)[1] not in silent:
                self.coordinator.heartbeat(worker_id)
        self.coordinator.finished

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def deregister(self, data):
        worker_id = data.draw(st.sampled_from(self.workers))
        self.workers.remove(worker_id)
        self.coordinator.deregister(worker_id)

    @rule(compact_every=st.sampled_from([1, 3, NEVER]))
    def crash_and_reopen(self, compact_every):
        """SIGKILL: handles dropped, nothing flushed, every worker id
        forgotten (but still good for a stale submit).  ``compact_every=1`` makes the *next* crash find a
        snapshot only; ``NEVER`` makes it find a journal only."""
        self.coordinator.store.close()
        self.coordinator._journal.close()
        self.workers.clear()
        self.coordinator = self._open(compact_every)
        self.fleet()  # the workers reconnect, as new epochs

    # ------------------------------------------------------------------
    @invariant()
    def results_are_a_canonical_prefix(self):
        lines = self.coordinator.store.results_bytes().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == CELL_IDS[: len(ids)]

    @invariant()
    def budgets_never_shrink(self):
        state = self.coordinator._state
        for index, cell in enumerate(state.cells):
            if cell.status == "done" and index not in state.buffer:
                continue  # flushed: its bookkeeping is over
            attempts, killers = self.floor.get(index, (0, set()))
            assert cell.attempts >= attempts, (index, cell.attempts, attempts)
            assert cell.killers >= killers, (index, cell.killers, killers)
            self.floor[index] = (cell.attempts, set(cell.killers))

    @invariant()
    def audit_status_tracks_candidates(self):
        state = self.coordinator._state
        for index, cell in enumerate(state.cells):
            if cell.status == "audit":
                assert state.audit.get(index)
            elif cell.status == "pending":
                assert index not in state.audit

    @invariant()
    def a_restart_would_recover_this_state(self):
        copy = tempfile.mkdtemp(prefix="fabsm-copy-")
        try:
            shutil.copytree(self.root, copy, dirs_exist_ok=True)
            fresh = self._open(NEVER, root=copy)
            try:
                assert durable(fresh) == durable(self.coordinator)
            finally:
                fresh.close()
        finally:
            shutil.rmtree(copy, ignore_errors=True)


FabricMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    database=None,
)
TestFabricStateMachine = FabricMachine.TestCase
