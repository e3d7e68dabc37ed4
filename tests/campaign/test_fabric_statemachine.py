"""Generated fault interleavings against the event-sourced coordinator.

A hypothesis state machine plays a small fleet -- workers registering,
leasing, submitting honest / duplicate / stale / corrupted / lying /
timed-out records, failing cells, dying of heartbeat timeout,
deregistering (a drain handing its unstarted cells back) -- and SIGKILLs the coordinator, or cuts its power,
at arbitrary points with compaction forced on either side of the crash.  A
power cut besides takes from ``results.jsonl`` and from ``timings.jsonl``,
independently, any whole lines written since the store's last ``sync()``:
the journal is the only file fsynced per record.  After *every* step:

* ``results.jsonl`` is a canonical prefix with no cell twice, and
  ``timings.jsonl`` holds one line per result;
* no open cell's retry count or killer set ever shrinks;
* every projection line written since the last ``sync()`` belongs to a
  cell the journal or the snapshot settles, and those cells' lines are a
  suffix of the file: the lines the crash smoke's power cut takes
  (``durable_cells``, shared with it) cover all a real one may;
* a fresh ``Coordinator`` over a copy of the run directory -- as it is,
  and with either or both projection files cut back to the last sync --
  recovers the very state the live one is in: replay is the live path,
  checked here rather than argued.

Deterministic: derandomized hypothesis, injected clock, seeded jitter.
"""

import json
import pathlib
import shutil
import tempfile
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.campaign import CampaignSpec
from repro.campaign.fabric import Coordinator, leases
from repro.campaign.fabric import coordinator as fabric_coordinator
from repro.campaign.fabric import journal as fabric_journal
from repro.campaign.runner import run_cell
from repro.campaign.store import RESULTS, TIMINGS, RunStore
from tests.campaign.fabric_helpers import (
    durable_cells,
    durable_suffix,
    sealed,
)

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
        "timed": [timing["id"] for timing in coordinator.store.timings()],
    }


def line_ends(path):
    """Every size ``path`` has had at the end of a whole line."""
    data = path.read_bytes() if path.is_file() else b""
    return [0] + [n + 1 for n, byte in enumerate(data) if byte == 0x0A]


def truncate(path, size):
    if path.is_file():
        with open(path, "r+b") as handle:
            handle.truncate(size)


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
        #: run directory -> (results, timings) sizes at its last ``sync()``
        self.synced: dict[pathlib.Path, list[int]] = {}
        real_sync = RunStore.sync

        def sync(store):
            real_sync(store)
            self.synced[store.directory] = [
                line_ends(store.directory / name)[-1]
                for name in (RESULTS, TIMINGS)
            ]

        self._sync_patch = mock.patch.object(RunStore, "sync", sync)
        self._sync_patch.start()
        self._constants = [
            mock.patch.object(fabric_journal, "FSYNC", False),
            mock.patch.object(leases, "HARD_TTL_FACTOR", 2.0),
            mock.patch.object(fabric_coordinator, "BACKOFF_BASE_S", 0.5),
        ]
        for patch in self._constants:
            patch.start()
        self.coordinator = self._open(NEVER)

    def _open(self, compact_every, root=None):
        return Coordinator(
            SPEC,
            root=root or self.root,
            clock=lambda: self.now,
            journal_compact_every=compact_every,
            lease_ttl_s=10.0,
            heartbeat_interval_s=1.0,
            heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S,
            lease_cells=2,
            max_transient_retries=2,
            audit_fraction=0.5,
            poison_kill_threshold=2,
        )

    def teardown(self):
        self.coordinator.close()
        self._sync_patch.stop()
        for patch in self._constants:
            patch.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def losable(self):
        """Per projection file: the sizes a power cut may leave it at --
        any line end not before what the last ``sync()`` saw."""
        directory = self.coordinator.store.directory
        synced = self.synced.get(directory, [0, 0])
        return [
            [end for end in line_ends(directory / name) if end >= floor]
            for name, floor in zip((RESULTS, TIMINGS), synced)
        ]

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
        self.deliver(worker_id, lease_id, data.draw(st.sampled_from(cells)), mode)

    def deliver(self, worker_id, lease_id, payload, mode="honest"):
        record, timing = honest(payload)
        if mode == "lie":
            record["touches"] = (record["touches"] or 0) + 1
        elif mode == "timeout":
            record.update(
                status="timeout", rounds=None, touches=None, verified=None
            )
        integrity = sealed(payload, record)
        if mode == "corrupt":
            integrity["record_sha256"] = "0" * 64
        return self.coordinator.submit(
            worker_id, lease_id, payload["cell_id"], record, timing, integrity
        )

    @precondition(lambda self: self.grants)
    @rule(data=st.data())
    def fail(self, data):
        worker_id, lease_id, cells = data.draw(st.sampled_from(self.grants[-RECENT:]))
        payload = data.draw(st.sampled_from(cells))
        self.coordinator.fail(worker_id, lease_id, payload["cell_id"], "boom")

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

    @rule(compact_every=st.sampled_from([1, 3, NEVER]), data=st.data())
    def power_cut_and_reopen(self, compact_every, data):
        """``crash_and_reopen`` with the machine going down too: each
        projection file keeps a drawn prefix of its unsynced lines."""
        directory = self.coordinator.store.directory
        sizes = [data.draw(st.sampled_from(ends)) for ends in self.losable()]
        self.coordinator.store.close()
        self.coordinator._journal.close()
        for name, size in zip((RESULTS, TIMINGS), sizes):
            truncate(directory / name, size)
        self.workers.clear()
        self.coordinator = self._open(compact_every)
        self.fleet()

    # ------------------------------------------------------------------
    @invariant()
    def results_are_a_canonical_prefix(self):
        lines = self.coordinator.store.results_bytes().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == CELL_IDS[: len(ids)]
        assert [t["id"] for t in self.coordinator.store.timings()] == ids

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
    def unsynced_lines_are_durably_settled(self):
        directory = self.coordinator.store.directory
        durable = durable_cells(directory, CELL_IDS)
        synced = self.synced.get(directory, [0, 0])
        for name, floor in zip((RESULTS, TIMINGS), synced):
            path = directory / name
            lines = path.read_bytes().splitlines() if path.is_file() else []
            first_unsynced = sum(end <= floor for end in line_ends(path)[1:])
            assert durable_suffix(lines, durable) <= first_unsynced, name

    @invariant()
    def audit_status_tracks_candidates(self):
        state = self.coordinator._state
        for index, cell in enumerate(state.cells):
            if cell.status == "audit":
                assert state.audit.get(index)
            elif cell.status == "pending":
                assert index not in state.audit

    def recovers(self, sizes=None):
        """A fresh coordinator over a copy of the run directory, its
        projection files first cut to ``sizes``, is where the live one is."""
        copy = tempfile.mkdtemp(prefix="fabsm-copy-")
        try:
            shutil.copytree(self.root, copy, dirs_exist_ok=True)
            for name, size in zip((RESULTS, TIMINGS), sizes or ()):
                truncate(pathlib.Path(copy, SPEC.campaign_id, name), size)
            fresh = self._open(NEVER, root=copy)
            try:
                assert durable(fresh) == durable(self.coordinator), sizes
            finally:
                fresh.close()
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    @invariant()
    def a_restart_would_recover_this_state(self):
        self.recovers()

    @invariant()
    def a_power_cut_would_recover_this_state(self):
        """The three worst cuts: either file, or both, back to the sync."""
        results, timings = self.losable()
        for sizes in {
            (results[0], timings[-1]),
            (results[-1], timings[0]),
            (results[0], timings[0]),
        } - {(results[-1], timings[-1])}:
            self.recovers(sizes)

    @rule(data=st.data())
    def a_drawn_power_cut_would_recover_this_state(self, data):
        self.recovers(
            [data.draw(st.sampled_from(ends)) for ends in self.losable()]
        )


FabricMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    database=None,
)
TestFabricStateMachine = FabricMachine.TestCase


class TestQuarantineAcrossAPowerCut:
    """Two histories the machine rarely draws, where a replay that does
    not flush exactly where the live coordinator did goes wrong: a
    quarantine retracts a worker's unaudited accepts only while they are
    still buffered."""

    @pytest.fixture
    def machine(self):
        machine = FabricMachine()
        machine.fleet()
        yield machine
        machine.teardown()

    @staticmethod
    def grant(machine, worker_id, index):
        reply = machine.coordinator.lease(worker_id, 1)
        assert [cell["index"] for cell in reply["cells"]] == [index]
        assert not machine.coordinator._audit_selected(CELL_IDS[index])
        return worker_id, reply["lease_id"], reply["cells"][0]

    def test_quarantined_after_its_accept_was_flushed(self, machine):
        _, bob, _ = machine.workers
        lied = self.grant(machine, bob, 0)
        assert machine.deliver(*lied, "lie")["accepted"]  # and flushed
        assert machine.deliver(*lied, "corrupt")["quarantined"]
        assert durable(machine.coordinator)["cells"][0] == "flushed"
        # cell 0's line is lost; a replay flushing only at its end would
        # find the accept still buffered at the quarantine and retract it
        machine.recovers((0, 0))
        machine.a_power_cut_would_recover_this_state()

    def test_quarantined_before_the_prefix_reached_its_accept(self, machine):
        ann, bob, _ = machine.workers
        slow = self.grant(machine, ann, 0)
        lied = self.grant(machine, bob, 1)
        assert machine.deliver(*lied, "lie")["accepted"]  # buffered behind 0
        assert machine.deliver(*lied, "corrupt")["quarantined"]  # retracted
        assert machine.deliver(*slow)["accepted"]
        assert machine.deliver(*self.grant(machine, ann, 1))["accepted"]
        results, timings = machine.losable()
        assert len(results) == 3
        # cell 1's line is lost, cell 0's is not: a replay flushing from
        # its first event would see the lie unbuffered by the quarantine
        machine.recovers((results[1], timings[1]))
        machine.recovers((results[1], timings[2]))
        machine.a_power_cut_would_recover_this_state()
