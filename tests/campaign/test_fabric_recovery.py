"""Crash-recovery tests for the fabric coordinator and its journal.

The write-ahead journal's contract: any coordinator state transition
that was acknowledged survives a SIGKILL -- buffered out-of-order
shards are re-admitted (completed work is never re-run), retry and
escalation budgets carry over, pre-crash leases expire -- and a
recovered run stays byte-identical to an uncrashed one.  A "crash" here
is abandoning one Coordinator mid-flight and constructing a second over
the same run directory, exactly what a restarted ``repro campaign
serve`` does.
"""

import json
import socket
import threading
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import Coordinator, FabricWorker, LocalClient
from repro.campaign.fabric.journal import (
    JOURNAL,
    KINDS,
    SNAPSHOT,
    FabricJournal,
)
from repro.campaign.runner import run_cell
from repro.errors import CampaignError, TransportError
from repro.campaign.fabric import coordinator as fabric_coordinator
from repro.campaign.fabric import journal as fabric_journal
from repro.campaign.fabric import state as fabric_state
from repro.campaign.fabric import worker as fabric_worker
from repro.rest import http_binding
from tests.campaign.fabric_helpers import fast_retries, run_local_fleet, sealed

SWEEP = {
    "name": "fabrec",
    "seed": 3,
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
    "schedulers": ["peacock", "greedy-slf"],
}
N_CELLS = 8

#: One cell only, with a timeout budget: retry/escalation tests need the
#: lease to keep returning the *same* cell across backoffs.
TINY = {
    "name": "fabrec-tiny",
    "seed": 3,
    "timeout_s": 30,
    "families": [{"family": "reversal", "sizes": [4]}],
    "schedulers": ["peacock"],
}

FAST = dict(lease_ttl_s=0.25, heartbeat_interval_s=0.05)


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    fast_retries(monkeypatch)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The pool runner's byte-exact output for SWEEP (the ground truth)."""
    root = tmp_path_factory.mktemp("baseline")
    spec = CampaignSpec.from_dict(SWEEP)
    runner = CampaignRunner(spec, root=str(root), workers=1)
    runner.run()
    return runner.store.results_bytes()


def _coordinator(tmp_path, spec_dict=SWEEP, **options):
    merged = {**FAST, **options}
    return Coordinator(
        CampaignSpec.from_dict(spec_dict), root=str(tmp_path), **merged
    )


def _crash(coordinator):
    """Abandon a coordinator the way a SIGKILL would: release the file
    handles (so the test can reopen the directory) but flush nothing."""
    coordinator.store.close()
    coordinator._journal.close()


def _compute_all(coordinator, worker_id, n=N_CELLS):
    reply = coordinator.lease(worker_id, n)
    shards = []
    for payload in reply["cells"]:
        record, timing = run_cell(payload)
        shards.append(
            (payload["cell_id"], record, timing, sealed(payload, record))
        )
    return reply["lease_id"], shards


class TestJournalRecovery:
    def test_buffered_shards_survive_crash_byte_identical(
        self, tmp_path, baseline
    ):
        # submit cells 7..1 in reverse order: all seven accepts are
        # journaled but none can flush (cell 0 is missing), the worst
        # possible crash exposure
        first = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id)
        for shard in reversed(shards[1:]):
            first.submit(worker_id, lease_id, *shard)
        assert first.store.status()["done"] == 0  # nothing flushed
        _crash(first)

        second = _coordinator(tmp_path, lease_cells=N_CELLS)
        assert second.counters["recovered_buffered"] == N_CELLS - 1
        assert second.counters["recovered_leases_expired"] == 1
        worker_id = second.register({"name": "finisher"})["worker_id"]
        reply = second.lease(worker_id, N_CELLS)
        assert len(reply["cells"]) == 1  # only cell 0 is still open
        payload = reply["cells"][0]
        record, timing = run_cell(payload)
        second.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record, timing,
            sealed(payload, record),
        )
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline

    def test_recovered_coordinator_finishes_with_fleet(
        self, tmp_path, baseline
    ):
        first = _coordinator(tmp_path, lease_cells=4)
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id, n=4)
        for shard in reversed(shards[1:]):
            first.submit(worker_id, lease_id, *shard)
        _crash(first)

        second = _coordinator(tmp_path, lease_cells=2)
        assert second.counters["recovered_buffered"] == 3
        run_local_fleet(second, 2)
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline

    def test_retry_budget_carries_over(self, tmp_path):
        first = _coordinator(
            tmp_path, TINY, lease_cells=1, max_transient_retries=2
        )
        worker_id = first.register({"name": "w"})["worker_id"]
        reply = first.lease(worker_id, 1)
        cell_id = reply["cells"][0]["cell_id"]
        assert first.fail(worker_id, reply["lease_id"], cell_id, "boom")[
            "retried"
        ]
        _crash(first)

        second = _coordinator(
            tmp_path, TINY, lease_cells=1, max_transient_retries=2
        )
        assert second.counters["recovered_retries"] >= 1
        worker_id = second.register({"name": "w2"})["worker_id"]
        # attempt 1 happened before the crash; two more exhaust the budget
        for expect_retry in (True, False):
            reply = second.lease(worker_id, 1)
            while not reply["cells"]:  # backoff may not have elapsed yet
                time.sleep(0.02)
                reply = second.lease(worker_id, 1)
            assert reply["cells"][0]["cell_id"] == cell_id
            outcome = second.fail(
                worker_id, reply["lease_id"], cell_id, "boom"
            )
            assert outcome["retried"] is expect_retry
        record = next(
            r for r in second.store.records() if r["id"] == cell_id
        )
        assert record["status"] == "error"
        assert "gave up after 3 attempts" in record["detail"]
        second.close()

    def test_escalation_carries_over(self, tmp_path):
        first = _coordinator(
            tmp_path, TINY, lease_cells=1, escalation_factor=4.0
        )
        worker_id = first.register({"name": "w"})["worker_id"]
        reply = first.lease(worker_id, 1)
        payload = reply["cells"][0]
        old_timeout = payload["timeout_s"]
        record, timing = run_cell(payload)
        record["status"] = "timeout"
        out = first.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record, timing,
            sealed(payload, record),
        )
        assert out.get("escalated")
        _crash(first)

        second = _coordinator(
            tmp_path, TINY, lease_cells=1, escalation_factor=4.0
        )
        assert second.counters["recovered_escalations"] == 1
        worker_id = second.register({"name": "w2"})["worker_id"]
        reply = second.lease(worker_id, 1)
        assert reply["cells"][0]["cell_id"] == payload["cell_id"]
        assert reply["cells"][0]["timeout_s"] == pytest.approx(
            old_timeout * 4.0
        )
        # a second timeout must not escalate again (the flag carried over)
        record2, timing2 = run_cell(reply["cells"][0])
        record2["status"] = "timeout"
        out = second.submit(
            worker_id,
            reply["lease_id"],
            payload["cell_id"],
            record2,
            timing2,
            sealed(reply["cells"][0], record2),
        )
        assert out["accepted"] and not out.get("escalated")
        second.close()

    def test_torn_tail_drops_only_last_record_and_releases_cell(
        self, tmp_path
    ):
        first = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id)
        for shard in reversed(shards[5:]):
            first.submit(worker_id, lease_id, *shard)
        _crash(first)

        # tear the journal mid-record, as a death inside append() would:
        # the last accept loses its tail and must be dropped on recovery
        journal_path = first.store.directory / JOURNAL
        data = journal_path.read_bytes()
        lines = data.splitlines(keepends=True)
        assert len(lines) >= 2
        torn = lines[-1][: len(lines[-1]) // 2].rstrip(b"\n")
        journal_path.write_bytes(b"".join(lines[:-1]) + torn)

        second = _coordinator(tmp_path, lease_cells=N_CELLS)
        # three accepts journaled (cells 7,6,5 reversed -> last line was
        # cell 5's accept); the torn one is gone, the rest survive
        assert second.counters["recovered_buffered"] == 2
        worker_id = second.register({"name": "w"})["worker_id"]
        reply = second.lease(worker_id, N_CELLS)
        leased = {cell["cell_id"] for cell in reply["cells"]}
        assert shards[5][0] in leased  # the torn accept's cell re-leases
        assert len(leased) == N_CELLS - 2
        second.close()

    def test_compaction_bounds_journal_and_restart_is_clean(
        self, tmp_path, baseline
    ):
        coordinator = _coordinator(tmp_path, journal_compact_every=4)
        run_local_fleet(coordinator, 2)
        coordinator.close()
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["journal_compactions"] >= 1
        journal_path = coordinator.store.directory / JOURNAL
        tail = [
            line
            for line in journal_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(tail) <= 4
        assert (coordinator.store.directory / SNAPSHOT).is_file()

        # a restart over the finished directory recovers nothing and is
        # immediately done
        again = _coordinator(tmp_path)
        assert again.finished
        assert again.counters["recovered_buffered"] == 0
        again.close()
        assert again.store.results_bytes() == baseline

    def test_snapshot_plus_journal_replay_skips_covered_seqs(self, tmp_path):
        journal = FabricJournal(tmp_path, compact_every=100)
        journal.append("retry", index=0, attempts=1)
        journal.append("retry", index=1, attempts=1)
        events = [{"kind": "retry", "index": i, "attempts": 1} for i in (0, 1)]
        journal.compact({"events": events})
        journal.append("retry", index=2, attempts=2)
        journal.close()

        # crash between snapshot write and truncation: stuff pre-snapshot
        # records back into the journal; replay must skip them by seq
        journal_path = tmp_path / JOURNAL
        stale = json.dumps({"seq": 1, "kind": "retry", "index": 0,
                            "attempts": 9}) + "\n"
        journal_path.write_text(stale + journal_path.read_text())

        reopened = FabricJournal(tmp_path, compact_every=100)
        snapshot, records = reopened.load()
        assert snapshot == {"events": events}
        assert [r["seq"] for r in records] == [3]
        assert reopened.append("retry", index=3, attempts=1) == 4
        reopened.close()


class _OutageClient:
    """LocalClient wrapper with a switchable 'coordinator down' mode."""

    def __init__(self, coordinator):
        self._inner = LocalClient(coordinator)
        self.down = threading.Event()

    def _guard(self):
        if self.down.is_set():
            raise TransportError("coordinator is down")

    def __getattr__(self, verb):
        inner = getattr(self._inner, verb)

        def call(*args, **kwargs):
            self._guard()
            return inner(*args, **kwargs)

        return call


class TestWorkerReconnect:
    def test_worker_rides_out_outage_and_resubmits(
        self, tmp_path, baseline, monkeypatch
    ):
        monkeypatch.setattr(fabric_worker, "RECONNECT_BASE_S", 0.02)
        monkeypatch.setattr(fabric_worker, "RECONNECT_CAP_S", 0.05)
        coordinator = _coordinator(tmp_path, lease_cells=1)
        client = _OutageClient(coordinator)
        seen = []

        def run_and_kill_link(payload):
            result = run_cell(payload)
            seen.append(payload["cell_id"])
            if len(seen) == 2:
                client.down.set()  # outage lands between compute and submit
            return result

        worker = FabricWorker(
            client,
            name="rider",
            max_lease_cells=1,
            max_offline_s=30.0,
            run_cell_fn=run_and_kill_link,
        )
        lifter = threading.Timer(0.4, client.down.clear)
        lifter.start()
        try:
            summary = worker.run()
        finally:
            lifter.cancel()
        coordinator.close()
        assert summary["reconnects"] >= 1
        assert not summary["gave_up_offline"]
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        # the in-flight record was resubmitted, not recomputed
        assert seen.count(seen[1]) == 1

    def test_max_offline_budget_gives_up(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fabric_worker, "RECONNECT_BASE_S", 0.02)
        monkeypatch.setattr(fabric_worker, "RECONNECT_CAP_S", 0.05)
        coordinator = _coordinator(tmp_path, lease_cells=1)
        client = _OutageClient(coordinator)

        def lease_then_die(*args, **kwargs):
            # the coordinator goes down -- for good -- on the first pull
            client.down.set()
            raise TransportError("coordinator is down")

        client._inner.lease = lease_then_die
        worker = FabricWorker(
            client,
            name="quitter",
            max_lease_cells=1,
            max_offline_s=0.3,
        )
        summary = worker.run()
        coordinator.close()
        assert summary["gave_up_offline"] is True
        assert summary["reconnects"] == 0
        assert not coordinator.finished


class TestDrainAndDeregister:
    def test_drain_finishes_inflight_requeues_rest_and_deregisters(
        self, tmp_path, baseline
    ):
        coordinator = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker = None

        def run_and_drain(payload):
            worker.request_drain()  # SIGTERM arrives mid-cell
            return run_cell(payload)

        worker = FabricWorker(
            LocalClient(coordinator),
            name="drainer",
            max_lease_cells=N_CELLS,
            run_cell_fn=run_and_drain,
        )
        summary = worker.run()
        assert summary["drained"] is True
        assert summary["cells_done"] == 1  # finished the in-flight cell
        assert coordinator.counters["deregisters"] == 1
        # handing cells back burns no retry budget and leaves no leases
        assert coordinator.counters["transient_failures"] == 0
        assert coordinator.counters["retries"] == 0
        assert not coordinator._table.leases()

        run_local_fleet(coordinator, 2)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline

    @pytest.mark.parametrize("drain_at", [0, 1, 2])
    def test_drain_mid_cell_hands_unstarted_cells_back_at_once(
        self, tmp_path, drain_at
    ):
        """A worker drained mid-cell with a 4-cell lease: after its
        ``deregister`` the cells it never started are pending, no attempt
        charged (cell 3 carries an earlier failure, kept as it was) and
        no backoff -- leasable the same instant."""
        clock = [0.0]
        coordinator = _coordinator(tmp_path, clock=lambda: clock[0])
        state = coordinator._state
        x = coordinator.register({"name": "x"})["worker_id"]
        earlier = coordinator.lease(x, 4)
        coordinator.fail(x, earlier["lease_id"], earlier["cells"][3]["cell_id"])
        coordinator.deregister(x)
        clock[0] = 1.0  # cell 3's backoff is over
        attempts = [0, 0, 0, 1]
        assert [c.attempts for c in state.cells[:4]] == attempts
        worker = None
        started = []

        def run_and_drain(payload):
            started.append(payload["index"])
            if len(started) == drain_at + 1:
                worker.request_drain()  # SIGTERM arrives mid-cell
            return run_cell(payload)

        worker = FabricWorker(
            LocalClient(coordinator), name="drainer", max_lease_cells=4,
            run_cell_fn=run_and_drain,
        )
        summary = worker.run()
        assert summary["drained"] and summary["cells_done"] == drain_at + 1
        assert started == list(range(drain_at + 1))
        assert all(state.cells[i].status == "done" for i in started)
        unstarted = list(range(drain_at + 1, 4))
        for index in unstarted:
            cell = state.cells[index]
            assert cell.status == "pending", index
            assert cell.attempts == attempts[index], index
            assert cell.eligible_at <= clock[0], index
        assert not coordinator._table.leases()
        assert coordinator.counters["transient_failures"] == 1  # x's, only
        assert coordinator.counters["retries"] == 1
        other = coordinator.register({"name": "other"})["worker_id"]
        granted = coordinator.lease(other, len(unstarted))["cells"]
        assert [c["index"] for c in granted] == unstarted
        coordinator.close()

    def test_deregister_requeues_leased_cells(self, tmp_path):
        coordinator = _coordinator(tmp_path, lease_cells=4)
        worker_id = coordinator.register({"name": "w"})["worker_id"]
        reply = coordinator.lease(worker_id, 4)
        assert len(reply["cells"]) == 4
        out = coordinator.deregister(worker_id)
        assert out["ok"] and out["requeued"] == 4
        # the cells are immediately leasable by someone else
        other = coordinator.register({"name": "other"})["worker_id"]
        assert len(coordinator.lease(other, N_CELLS)["cells"]) == N_CELLS
        coordinator.close()


class TestIntegrityRecovery:
    def test_quarantine_survives_double_restart(self, tmp_path, baseline):
        first = _coordinator(tmp_path, lease_cells=2)
        worker_id = first.register({"name": "shady"})["worker_id"]
        reply = first.lease(worker_id, 2)
        payload = reply["cells"][0]
        record, timing = run_cell(payload)
        out = first.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record, timing,
            {"record_sha256": "0" * 64, "cell_hash": "0" * 64},
        )
        assert out["rejected"] and out["quarantined"]
        _crash(first)

        second = _coordinator(tmp_path, lease_cells=2)
        assert second.counters["recovered_quarantines"] == 1
        again = second.register({"name": "shady"})
        assert again["quarantined"] is True
        assert second.lease(again["worker_id"], 1)["quarantined"] is True
        _crash(second)

        # the recovery compacts a snapshot; replaying snapshot + journal
        # a second time must not double-count or un-quarantine anyone
        third = _coordinator(tmp_path, lease_cells=2)
        assert third.counters["recovered_quarantines"] == 1
        assert third.status()["fabric"]["quarantined_workers"] == ["shady"]
        run_local_fleet(third, 2)
        third.close()
        assert third.finished
        assert third.store.results_bytes() == baseline

    def test_audit_candidate_survives_restart(self, tmp_path, baseline):
        options = dict(lease_cells=1, audit_fraction=1.0)
        first = _coordinator(tmp_path, **options)
        worker_id = first.register({"name": "first"})["worker_id"]
        reply = first.lease(worker_id, 1)
        payload = reply["cells"][0]
        record, timing = run_cell(payload)
        out = first.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record, timing,
            sealed(payload, record),
        )
        assert out["accepted"] and out.get("audit_pending")
        _crash(first)

        # the lone candidate must come back and still await a second,
        # *different* worker's byte-identical re-execution
        second = _coordinator(tmp_path, **options)
        assert second.counters["recovered_audit_candidates"] == 1
        assert second.status()["fabric"]["audits_pending"] == 1
        auditor = second.register({"name": "auditor"})["worker_id"]
        reply = second.lease(auditor, 1)
        assert reply["cells"][0]["cell_id"] == payload["cell_id"]
        out = second.submit(
            auditor, reply["lease_id"], payload["cell_id"], record, timing,
            sealed(payload, record),
        )
        assert out["accepted"] and not out.get("audit_pending")
        assert second.counters["audits_run"] == 1
        run_local_fleet(second, 2)
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline
        assert second.counters["audit_mismatches"] == 0

    def test_poison_kills_accumulate_across_restart(self, tmp_path):
        options = dict(
            lease_cells=1,
            poison_kill_threshold=2,
            heartbeat_timeout_s=0.1,
        )
        first = _coordinator(tmp_path, TINY, **options)
        killer = first.register({"name": "k1"})["worker_id"]
        assert first.lease(killer, 1)["cells"]
        time.sleep(0.15)  # k1 dies holding the cell
        assert first.finished is False  # triggers the reap
        assert first.counters["kills"] == 1
        _crash(first)

        # kill #1 must carry over: one more distinct killer -- not two --
        # crosses the threshold after the restart
        second = _coordinator(tmp_path, TINY, **options)
        killer2 = second.register({"name": "k2"})["worker_id"]
        assert second.lease(killer2, 1)["cells"]
        time.sleep(0.15)
        assert second.finished is True  # reap -> kill #2 -> poisoned
        assert second.counters["poisoned_cells"] == 1
        _crash(second)

        third = _coordinator(tmp_path, TINY, **options)
        assert third.finished
        _crash(third)
        fourth = _coordinator(tmp_path, TINY, **options)
        assert fourth.finished
        fourth.close()
        records = fourth.store.records()
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert "poisoned: killed 2 distinct workers" in records[0]["detail"]


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestHttpRestartEndToEnd:
    def test_worker_survives_coordinator_restart_over_http(
        self, tmp_path, baseline, monkeypatch
    ):
        monkeypatch.setattr(http_binding, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(http_binding, "BACKOFF_BASE_S", 0.01)
        monkeypatch.setattr(http_binding, "BACKOFF_CAP_S", 0.02)
        monkeypatch.setattr(fabric_worker, "RECONNECT_BASE_S", 0.05)
        monkeypatch.setattr(fabric_worker, "RECONNECT_CAP_S", 0.2)
        from repro.campaign.fabric import HttpFabricClient
        from repro.rest.api import build_campaign_api
        from repro.rest.http_binding import HttpClient, RestHttpServer

        spec = CampaignSpec.from_dict(SWEEP)
        root = str(tmp_path)
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        serve_body = {
            "spec": spec.to_dict(),
            "lease_ttl_s": 0.25,
            "heartbeat_interval_s": 0.05,
            "lease_cells": 1,
        }

        api1 = build_campaign_api(campaign_root=root)
        api1.campaigns.serve(serve_body)
        first = api1.campaigns.fabric(spec.campaign_id)
        server1 = RestHttpServer(api1, port=port)
        server1.start()

        class PacedClient(HttpClient):
            # over a kept-alive connection all eight cells can be through
            # between two looks of the 20 ms poll below
            def request(self, method, path, body=None):
                time.sleep(0.01)
                return super().request(method, path, body)

        worker = FabricWorker(
            HttpFabricClient(
                url,
                spec.campaign_id,
                http=PacedClient(url),
            ),
            name="rider",
            max_lease_cells=1,
            max_offline_s=30.0,
        )
        summaries = []
        thread = threading.Thread(
            target=lambda: summaries.append(worker.run()), daemon=True
        )
        thread.start()

        deadline = time.monotonic() + 30
        while first.status()["done"] < 2:
            assert time.monotonic() < deadline, "fleet never progressed"
            time.sleep(0.02)
        server1.stop()  # SIGKILL stand-in: mid-campaign, no goodbye
        api1.campaigns.close()

        time.sleep(0.2)
        api2 = build_campaign_api(campaign_root=root)
        api2.campaigns.serve(serve_body)  # recovery happens here
        second = api2.campaigns.fabric(spec.campaign_id)
        server2 = RestHttpServer(api2, port=port)
        server2.start()
        try:
            assert second.wait(timeout_s=60)
            thread.join(timeout=30)
        finally:
            server2.stop()
            api2.campaigns.close()
        assert summaries and summaries[0]["reconnects"] >= 1
        assert not summaries[0]["gave_up_offline"]
        assert second.store.results_bytes() == baseline



#: A ``journal_compact_every`` that never fires (1 fires on every record).
NEVER = 10**9


class _HostileLife:
    """One scripted coordinator life that journals all nine record kinds
    and is then abandoned mid-flight.

    Injected clock, so the same calls make the same history however the
    journal is compacted.  At the crash, in canonical cell order: 0 settled
    by audit (the liar that lost it quarantined) and 1 given up on after
    three failures, both flushed; 2 failed twice and under an open lease;
    3 poisoned by two worker deaths, buffered; 4 escalated and under an
    open lease; 5 an audited out-of-order accept, buffered; 6 holding one
    audit candidate; 7 untouched.
    """

    RECOVERED = {
        "recovered_buffered": 2,
        "recovered_retries": 1,
        "recovered_escalations": 1,
        "recovered_leases_expired": 2,
        "recovered_quarantines": 1,
        "recovered_audit_candidates": 1,
    }
    RESULTS: dict = {}

    def __init__(self, tmp_path, compact_every):
        self.now = 0.0
        self.tmp_path = tmp_path
        self.options = dict(
            clock=lambda: self.now,
            journal_compact_every=compact_every,
            lease_ttl_s=1000.0,
            heartbeat_timeout_s=1.0,
            lease_cells=1,
            max_transient_retries=2,
            poison_kill_threshold=2,
            audit_fraction=1.0,
        )
        self.coordinator = self.open()
        self.ids = {}
        self.play()
        _crash(self.coordinator)

    def open(self):
        return _coordinator(
            self.tmp_path, dict(SWEEP, timeout_s=30), **self.options
        )

    def tick(self, silent=()):
        """A second passes (any backoff elapses); workers not named in
        ``silent`` heartbeat through it, the silent ones are reaped."""
        for _ in range(2):
            self.now += 0.6
            for name, worker_id in self.ids.items():
                if name not in silent:
                    self.coordinator.heartbeat(worker_id)

    def lease(self, name, expect):
        if name not in self.ids:
            reply = self.coordinator.register({"name": name})
            self.ids[name] = reply["worker_id"]
        self.tick()
        reply = self.coordinator.lease(self.ids[name], 1)
        assert [c["index"] for c in reply["cells"]] == [expect]
        return reply["lease_id"], reply["cells"][0]

    def submit(self, name, grant, **damage):
        lease_id, payload = grant
        # one run per cell for all lives: timings differ run to run
        cell_id = payload["cell_id"]
        if cell_id not in self.RESULTS:
            self.RESULTS[cell_id] = run_cell(payload)
        record, timing = map(dict, self.RESULTS[cell_id])
        record.update(damage)
        return self.coordinator.submit(
            self.ids[name], lease_id, payload["cell_id"], record, timing,
            sealed(payload, record),
        )

    def fail(self, name, grant):
        lease_id, payload = grant
        return self.coordinator.fail(
            self.ids[name], lease_id, payload["cell_id"], "boom"
        )["retried"]

    def play(self):
        # cell 0: the liar's candidate is outvoted by two honest ones
        assert self.submit("liar", self.lease("liar", 0), touches=99)[
            "audit_pending"
        ]
        assert self.submit("ann", self.lease("ann", 0))["audit_pending"]
        assert self.submit("bob", self.lease("bob", 0))["audited"]
        # cell 1: a retry budget of two is exhausted by the third failure
        assert [self.fail("ann", self.lease("ann", 1)) for _ in range(3)] == [
            True, True, False,
        ]
        # cell 2: two failures, then parked under bob's lease
        for _ in range(2):
            assert self.fail("ann", self.lease("ann", 2))
        self.lease("bob", 2)
        # cell 3: two distinct workers die holding it
        for doomed in ("k1", "k2"):
            self.lease(doomed, 3)
            self.tick(silent=(doomed,))
            del self.ids[doomed]
        assert self.coordinator.counters["poisoned_cells"] == 1
        # cell 4: a timeout escalates once; ann keeps the re-lease
        assert self.submit("ann", self.lease("ann", 4), status="timeout")[
            "escalated"
        ]
        self.lease("ann", 4)
        # cell 5: audited, but cells 2 and 4 block the flush
        assert self.submit("cat", self.lease("cat", 5))["audit_pending"]
        assert self.submit("dan", self.lease("dan", 5))["audited"]
        # cell 6: a lone candidate
        assert self.submit("cat", self.lease("cat", 6))["audit_pending"]
        assert self.coordinator.store.status()["done"] == 2


class TestEventSourcing:
    """Recovery folds the live transition function over the journal, so
    it must not matter whether a history comes back as journal records or
    as a compacted snapshot -- and whatever was written must be handled."""

    def test_compacted_and_uncompacted_histories_recover_alike(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fabric_journal, "FSYNC", False)
        # the same life, journaled once into a snapshot after every
        # record and once into a journal that is never compacted
        lives = [
            _HostileLife(tmp_path / "snapshot", 1),
            _HostileLife(tmp_path / "journal", NEVER),
        ]
        assert not lives[0].coordinator._journal.journal_path.read_text()
        assert not lives[1].coordinator._journal.snapshot_path.exists()

        recovered = [life.open() for life in lives]
        assert recovered[0].counters == recovered[1].counters
        assert {
            name: recovered[0].counters[name]
            for name in _HostileLife.RECOVERED
        } == _HostileLife.RECOVERED
        assert (
            recovered[0]._state.snapshot_events()
            == recovered[1]._state.snapshot_events()
        )
        folds = []
        for coordinator in recovered:
            run_local_fleet(coordinator, 3)
            coordinator.close()
            assert coordinator.finished
            folds.append(coordinator.store.results_bytes())
        assert folds[0] == folds[1]
        statuses = [json.loads(line)["status"] for line in folds[0].splitlines()]
        assert statuses == ["ok", "error", "ok", "error", "ok", "ok", "ok", "ok"]

    def test_recovered_retries_counts_cells_not_records(
        self, tmp_path, monkeypatch
    ):
        # the drift this class guards against, at its smallest: two
        # failures of one cell used to recover as 2 (journal records)
        # or 1 (snapshot entries) depending on compaction
        monkeypatch.setattr(fabric_journal, "FSYNC", False)
        monkeypatch.setattr(fabric_coordinator, "BACKOFF_BASE_S", 0.0)
        counters = []
        for compact_every in (1, NEVER):
            options = dict(lease_cells=1, journal_compact_every=compact_every)
            root = tmp_path / str(compact_every)
            first = _coordinator(root, TINY, **options)
            worker_id = first.register({"name": "w"})["worker_id"]
            for _ in range(2):
                reply = first.lease(worker_id, 1)
                cell_id = reply["cells"][0]["cell_id"]
                assert first.fail(worker_id, reply["lease_id"], cell_id)[
                    "retried"
                ]
            _crash(first)
            second = _coordinator(root, TINY, **options)
            counters.append(second.counters)
            second.close()
        assert counters[0] == counters[1]
        assert counters[0]["recovered_retries"] == 1

    def test_every_journaled_kind_has_a_handler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fabric_journal, "FSYNC", False)
        life = _HostileLife(tmp_path, NEVER)
        journal = life.coordinator._journal
        written = {
            json.loads(line)["kind"]
            for line in journal.journal_path.read_text().splitlines()
        }
        # the scripted life exercises the whole vocabulary, and the state
        # machine dispatches on exactly that vocabulary
        assert written == set(KINDS)
        assert set(fabric_state._HANDLERS) == set(KINDS)
        # a kind nothing could replay is refused at write time
        reopened = FabricJournal(tmp_path / "other")
        with pytest.raises(CampaignError, match="unknown journal record kind"):
            reopened.append("requeue", index=0)
        assert not reopened.journal_path.exists()

    def test_old_per_cell_snapshot_is_refused_not_half_read(self, tmp_path):
        first = _coordinator(tmp_path)
        first.close()
        journal = FabricJournal(first.store.directory)
        journal.append("retry", index=0, attempts=1)
        journal.compact(
            {"cells": {"0": {"attempts": 1}}, "quarantined": ["shady"]}
        )
        journal.close()
        with pytest.raises(CampaignError, match="old per-cell snapshot"):
            _coordinator(tmp_path)


def _keep_lines(path, lines):
    """Cut ``path`` back to its first ``lines`` lines (a power cut takes
    the unsynced tail of a file, and not the same tail of every file)."""
    data = path.read_bytes().splitlines(keepends=True) if path.is_file() else []
    path.write_bytes(b"".join(data[:lines]))


class TestProjectionBehindTheJournal:
    """``results.jsonl`` / ``timings.jsonl`` are a projection of the
    journal, synced once per compaction: whatever tails of them a power
    cut takes, recovery re-derives from the journaled accepts."""

    def finish(self, tmp_path, journaled, baseline):
        """Reopen, let one worker finish, and check the three verdicts."""
        executed = []

        def run_and_note(payload):
            executed.append(payload["cell_id"])
            return run_cell(payload)

        second = _coordinator(tmp_path)
        worker = FabricWorker(
            LocalClient(second), name="finisher", run_cell_fn=run_and_note
        )
        worker.run()
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline
        assert not set(executed) & set(journaled)
        assert len(executed) == N_CELLS - len(journaled)
        assert [t["id"] for t in second.store.timings()] == [
            r["id"] for r in second.store.records()
        ]
        return second

    @pytest.mark.parametrize(
        "results_kept, timings_kept",
        [(6, 2), (2, 6), (0, 0), (3, 5), (6, 6)],
        ids=["results-ahead", "timings-ahead", "both-empty", "uneven", "intact"],
    )
    def test_lost_tails_are_rederived_not_rerun(
        self, tmp_path, baseline, results_kept, timings_kept
    ):
        first = _coordinator(
            tmp_path, lease_cells=N_CELLS, journal_compact_every=NEVER
        )
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id)
        for shard in shards[:6]:
            first.submit(worker_id, lease_id, *shard)
        assert first.status()["done"] == 6
        _crash(first)
        _keep_lines(first.store.directory / "results.jsonl", results_kept)
        _keep_lines(first.store.directory / "timings.jsonl", timings_kept)

        second = self.finish(
            tmp_path, [cell_id for cell_id, *_ in shards[:6]], baseline
        )
        assert second.counters["recovered_buffered"] == 6 - min(
            results_kept, timings_kept
        )

    def test_snapshot_only_directory(self, tmp_path, baseline):
        # compaction after every record: the journal is always empty and
        # the seven out-of-order accepts live in the snapshot alone
        first = _coordinator(
            tmp_path, lease_cells=N_CELLS, journal_compact_every=1
        )
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id)
        for shard in reversed(shards[1:]):
            first.submit(worker_id, lease_id, *shard)
        _crash(first)
        directory = first.store.directory
        assert not (directory / JOURNAL).read_text()
        for name in ("results.jsonl", "timings.jsonl"):
            (directory / name).unlink(missing_ok=True)

        second = self.finish(
            tmp_path, [cell_id for cell_id, *_ in shards[1:]], baseline
        )
        assert second.counters["recovered_buffered"] == N_CELLS - 1

    @pytest.fixture
    def unsynced(self, monkeypatch):
        """``unsynced(directory)``: bytes of each projection file that no
        ``os.fsync`` has covered since this fixture was set up."""
        import os

        synced = {}
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            synced[os.fstat(fd).st_ino] = os.fstat(fd).st_size

        def unsynced(directory):
            stats = [
                (directory / name).stat()
                for name in ("results.jsonl", "timings.jsonl")
            ]
            return [s.st_size - synced.get(s.st_ino, 0) for s in stats]

        monkeypatch.setattr(os, "fsync", fsync)
        return unsynced

    def test_compaction_syncs_the_projection_before_the_snapshot(
        self, tmp_path, monkeypatch, unsynced
    ):
        # the snapshot forgets flushed cells, so at the moment it is
        # written nothing of either file may still be unsynced
        from repro.campaign.fabric import journal

        first = _coordinator(tmp_path, journal_compact_every=4)
        at_snapshot = []
        real_write = journal.atomic_write_text

        def atomic_write_text(path, text):
            at_snapshot.append(unsynced(first.store.directory))
            real_write(path, text)

        monkeypatch.setattr(journal, "atomic_write_text", atomic_write_text)
        run_local_fleet(first, 1)
        assert first.counters["journal_compactions"] >= 2
        assert any(unsynced(first.store.directory))  # the tail since
        assert at_snapshot and not any(map(any, at_snapshot))
        first.close()
        assert not any(unsynced(first.store.directory))

    def test_recovery_syncs_what_a_killed_coordinator_only_flushed(
        self, tmp_path, unsynced
    ):
        # SIGKILL loses nothing of the projection, but nobody has synced
        # it either: the recovery's compaction must, before its snapshot
        # drops those cells, though this process never wrote to the files
        first = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = first.register({"name": "doomed"})["worker_id"]
        lease_id, shards = _compute_all(first, worker_id)
        for shard in shards[:3]:
            first.submit(worker_id, lease_id, *shard)
        _crash(first)
        assert all(unsynced(first.store.directory))

        second = _coordinator(tmp_path)
        assert second.counters["recovered_buffered"] == 0
        assert not any(unsynced(second.store.directory))
        assert not second._journal.journal_path.read_text()
        second.close()
