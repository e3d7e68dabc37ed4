"""Deterministic work bounds of the coordinator's hot verbs.

Counts, not clocks: how many cells a lease inspects, what ``status()``
reads, and how many ``os.fsync`` calls a fold makes.  The journal is the
fabric's only per-record durable file -- one fsync per journal record, a
constant per compaction -- while ``RunStore.append`` on its own (the pool
runner's path) still fsyncs both of its files for every record.
"""

import os

import pytest

from repro.campaign import CampaignSpec
from repro.campaign import store as store_mod
from repro.campaign.fabric import Coordinator, FabricWorker, LocalClient
from repro.campaign.fabric import journal as fabric_journal
from repro.campaign.runner import new_record
from repro.campaign.store import RunStore
from tests.campaign.fabric_helpers import sealed

#: results, timings, the snapshot, its directory entry, the emptied journal
FSYNCS_PER_COMPACTION = 5
#: ``Coordinator.close`` syncs the projection's tail (results, timings)
FSYNCS_AT_CLOSE = 2


def _spec(cells, name="fabcost"):
    return CampaignSpec.from_dict({
        "name": name,
        "seed": 3,
        "families": [{"family": "reversal", "sizes": [4], "repeats": cells}],
        "schedulers": ["oneshot"],
    })


class CountingCells(list):
    """A cell list that remembers which indices were looked at; walking
    it whole counts as looking at every one."""

    def __init__(self, cells):
        super().__init__(cells)
        self.touched = set()

    def __getitem__(self, index):
        self.touched.add(index)
        return super().__getitem__(index)

    def __iter__(self):
        self.touched.update(range(len(self)))
        return super().__iter__()


@pytest.fixture
def big(tmp_path, monkeypatch):
    """A 10^4-cell grid behind a coordinator that never waits for a disk,
    whose clock stands still (no lease ever expires) and that never
    compacts (a snapshot walks every cell, once per 256 records)."""
    spec = _spec(10_000)
    monkeypatch.setattr(store_mod, "FSYNC", False)
    monkeypatch.setattr(fabric_journal, "FSYNC", False)
    coordinator = Coordinator(
        spec,
        store=RunStore(tmp_path, spec.campaign_id),
        journal_compact_every=10**9,
        clock=lambda: 0.0,
    )
    coordinator._state.cells = CountingCells(coordinator._state.cells)
    yield coordinator
    coordinator.close()


def _submit(coordinator, worker_id, reply, status="ok"):
    for payload in reply["cells"]:
        record = new_record(payload, status)
        out = coordinator.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record,
            {"id": payload["cell_id"], "wall_ms": 0.0},
            sealed(payload, record),
        )
        assert out["accepted"]


class TestLeaseScan:
    def test_a_lease_inspects_only_what_is_not_flushed(self, big):
        cells = big._state.cells
        limit = big.lease_cells
        slow = big.register({"name": "slow"})["worker_id"]
        fast = big.register({"name": "fast"})["worker_id"]
        held = big.lease(slow)  # cells 0..3, sat on for a hundred cells
        leases = 0
        while not big.finished:
            if leases == 25:
                _submit(big, slow, held)  # the prefix catches up
                assert not big._state.buffer
            outstanding = sum(
                len(lease.cell_indices) for lease in big._table.leases()
            )
            buffered = len(big._state.buffer)
            cells.touched.clear()
            reply = big.lease(fast)
            assert len(reply["cells"]) == limit
            assert len(cells.touched) <= outstanding + buffered + limit
            if leases > 25:
                assert len(cells.touched) == limit
            _submit(big, fast, reply)
            leases += 1
        assert leases == 10_000 // limit - 1
        assert big.store.status()["done"] == 10_000


class TestStatus:
    def test_status_is_the_store_status_without_rereading_it(self, big):
        slow = big.register({"name": "slow"})["worker_id"]
        fast = big.register({"name": "fast"})["worker_id"]
        held = big.lease(slow)

        def check(flushed, buffered):
            expected = big.store.status()
            assert expected["done"] == flushed
            cells = big._state.cells
            cells.touched.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(big.store, "_read_jsonl", None)  # unreadable
                patch.setattr(big.store, "manifest", None)
                reply = big.status()
            assert not cells.touched
            fabric = reply.pop("fabric")
            assert fabric["buffered"] == buffered
            assert fabric["pending"] == 10_000 - flushed - buffered
            assert list(reply) == list(expected)
            if not buffered:
                assert reply == expected
            assert reply["done"] == flushed + buffered
            assert reply["remaining"] == 10_000 - flushed - buffered
            return reply

        check(0, 0)
        _submit(big, fast, big.lease(fast), status="error")
        _submit(big, fast, big.lease(fast))
        reply = check(0, 8)
        assert reply["by_status"]["error"] == 4 and reply["by_status"]["ok"] == 4
        _submit(big, slow, held)
        check(12, 0)

    def test_a_reopened_coordinator_tallies_what_is_on_disk(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fabric_journal, "FSYNC", False)
        spec = _spec(12)
        first = Coordinator(spec, root=str(tmp_path))
        worker_id = first.register({"name": "w"})["worker_id"]
        _submit(first, worker_id, first.lease(worker_id), status="error")
        _submit(first, worker_id, first.lease(worker_id))
        first.close()
        second = Coordinator(spec, root=str(tmp_path))
        reply = second.status()
        del reply["fabric"]
        assert reply == second.store.status()
        assert reply["by_status"]["error"] == 4 and reply["done"] == 8
        second.close()


class TestFsyncs:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def fsync(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    @pytest.mark.parametrize("compact_every", [7, 10**9])
    def test_one_fsync_per_journal_record(self, tmp_path, fsyncs, compact_every):
        cells = 24
        coordinator = Coordinator(
            _spec(cells), root=str(tmp_path),
            journal_compact_every=compact_every,
        )
        del fsyncs[:]  # the manifest's
        FabricWorker(LocalClient(coordinator), name="only").run()
        assert coordinator.finished
        counters = coordinator.counters
        assert counters["journal_records"] == cells + counters["leases_granted"]
        assert counters["leases_granted"] == cells // coordinator.lease_cells
        assert len(fsyncs) == (
            counters["journal_records"]
            + FSYNCS_PER_COMPACTION * counters["journal_compactions"]
        )
        assert bool(counters["journal_compactions"]) == (compact_every == 7)
        coordinator.close()
        assert len(fsyncs) == (
            counters["journal_records"]
            + FSYNCS_PER_COMPACTION * counters["journal_compactions"]
            + FSYNCS_AT_CLOSE
        )

    def test_append_alone_still_fsyncs_both_files_per_record(
        self, tmp_path, fsyncs
    ):
        spec = _spec(3)
        store = RunStore(tmp_path, spec.campaign_id)
        store.initialize(spec, n_cells=3)
        del fsyncs[:]
        for cell in spec.expand():
            payload = cell.payload()
            store.append(
                new_record(payload), {"id": payload["cell_id"], "wall_ms": 0.0}
            )
            assert len(set(fsyncs[-2:])) == 2  # results and timings
        assert len(fsyncs) == 2 * 3
        store.close()
