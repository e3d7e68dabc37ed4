"""Result-integrity tests: checksums, audits, quarantine, poison, guards.

PR 10's threat model: the coordinator stops trusting well-formed
submissions.  Wire corruption is caught by the canonical-JSON checksum,
plausible lies by seeded audit re-execution on a different worker,
repeat worker-killers by poison containment, and runaway cells by
per-cell resource limits.  Every scenario asserts the determinism
contract still holds: the surviving honest fold is byte-identical to
the single-host pool runner.
"""

import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import Coordinator
from repro.campaign.runner import run_cell
from repro.campaign.spec import payload_identity_hash
from repro.campaign.store import record_checksum
from tests.campaign.fabric_helpers import (
    Faults, fast_retries, lie, run_local_fleet, sealed,
)

SWEEP = {
    "name": "integ",
    "seed": 3,
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
    "schedulers": ["peacock", "greedy-slf"],
}
N_CELLS = 8

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


class TestIntegrityPrimitives:
    def test_record_checksum_is_stable_and_tamper_evident(self):
        record = {"id": "a", "rounds": 3, "seed": 7}
        assert record_checksum(record) == record_checksum(dict(record))
        # key order must not matter (canonical encoding)
        assert record_checksum({"seed": 7, "rounds": 3, "id": "a"}) == (
            record_checksum(record)
        )
        tampered = dict(record, rounds=4)
        assert record_checksum(tampered) != record_checksum(record)

    def test_payload_identity_survives_escalation_rewrites(self):
        cells = CampaignSpec.from_dict(SWEEP).expand()
        payload = cells[0].payload()
        base = payload_identity_hash(payload)
        escalated = dict(
            payload, timeout_s=120.0, scheduler_params={"node_budget": 5}
        )
        assert payload_identity_hash(escalated) == base
        other = cells[1].payload()
        assert payload_identity_hash(other) != base

    def test_wrong_cell_hash_is_rejected_and_quarantines(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        worker_id = coordinator.register({"name": "confused"})["worker_id"]
        reply = coordinator.lease(worker_id, 2)
        payload = reply["cells"][0]
        record, timing = run_cell(payload)
        out = coordinator.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record, timing,
            {**sealed(payload, record), "cell_hash": "not-the-cell-you-leased"},
        )
        assert out["rejected"] and out["quarantined"]
        assert out["reason"] == "integrity"
        assert coordinator.counters["integrity_rejects"] == 1
        assert coordinator.counters["quarantines"] == 1
        # nothing was journaled or folded, and the name stays banned
        assert coordinator.store.status()["done"] == 0
        again = coordinator.register({"name": "confused"})
        assert again["quarantined"] is True
        assert coordinator.lease(again["worker_id"], 1)["quarantined"] is True
        coordinator.close()


class TestAuditSampling:
    def test_sampling_is_deterministic_and_fraction_bounded(self, tmp_path):
        ids = [c.cell_id for c in CampaignSpec.from_dict(SWEEP).expand()]
        a = _coordinator(tmp_path / "a", audit_fraction=0.5, audit_seed=9)
        b = _coordinator(tmp_path / "b", audit_fraction=0.5, audit_seed=9)
        assert [a._audit_selected(i) for i in ids] == [
            b._audit_selected(i) for i in ids
        ]
        none = _coordinator(tmp_path / "c", audit_fraction=0.0)
        every = _coordinator(tmp_path / "d", audit_fraction=1.0)
        assert not any(none._audit_selected(i) for i in ids)
        assert all(every._audit_selected(i) for i in ids)
        for coordinator in (a, b, none, every):
            coordinator.close()


class TestCorruptingWorker:
    def test_corrupted_submit_rejected_worker_quarantined(
        self, tmp_path, baseline
    ):
        # worker 0's first submission is bit-damaged after checksumming
        # (wire corruption): the coordinator must reject it pre-journal,
        # quarantine the name, and let the honest worker finish
        faults = {0: Faults(corrupt_submits=(0,))}
        coordinator = _coordinator(tmp_path, lease_cells=2)
        summaries = run_local_fleet(coordinator, 2, faults)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["integrity_rejects"] == 1
        assert coordinator.counters["quarantines"] == 1
        assert coordinator.status()["fabric"]["quarantined_workers"] == [
            "local0"
        ]
        assert summaries[0]["quarantined"] is True
        assert summaries[0]["rejected_submits"] == 1
        assert summaries[1]["quarantined"] is False


class TestLyingWorker:
    def test_audit_reexecution_catches_plausible_lies(
        self, tmp_path, baseline
    ):
        # worker 0 lies from the start -- well-formed records, matching
        # checksums.  With every cell audited, the lie never finds a
        # byte-identical second run, the two honest workers corroborate
        # each other, and the liar is quarantined.
        faults = {0: Faults(lie_after_cells=0)}
        coordinator = _coordinator(
            tmp_path, lease_cells=1, audit_fraction=1.0
        )
        summaries = run_local_fleet(coordinator, 3, faults)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["audits_run"] == N_CELLS
        assert coordinator.counters["audit_mismatches"] == 1
        assert coordinator.counters["quarantines"] == 1
        assert "local0" in coordinator.telemetry()["quarantined_workers"]
        assert summaries[0]["quarantined"] is True

    def test_the_liar_hears_its_verdict_after_the_last_cell(self, tmp_path):
        # the audit that quarantines the liar also settles the only
        # cell: the liar's next lease must still carry the verdict
        one = {**SWEEP, "families": [{"family": "reversal", "sizes": [4]}],
               "schedulers": ["peacock"]}
        coordinator = _coordinator(tmp_path, one, audit_fraction=1.0)
        liar, a, b = (coordinator.register({"name": name})["worker_id"]
                      for name in ("liar", "a", "b"))
        for worker_id, lying in ((liar, True), (a, False), (b, False)):
            reply = coordinator.lease(worker_id, 1)
            [payload] = reply["cells"]
            record, timing = run_cell(payload)
            if lying:
                record = lie(record)
            coordinator.submit(
                worker_id, reply["lease_id"], payload["cell_id"], record,
                timing, sealed(payload, record),
            )
        assert coordinator.finished
        assert coordinator.counters["quarantines"] == 1
        assert coordinator.lease(liar, 1)["quarantined"] is True
        assert coordinator.lease(a, 1) == {"cells": [], "done": True}
        coordinator.close()

    def test_honest_fleet_audits_clean(self, tmp_path, baseline):
        coordinator = _coordinator(
            tmp_path, lease_cells=2, audit_fraction=1.0
        )
        run_local_fleet(coordinator, 2)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["audits_run"] == N_CELLS
        assert coordinator.counters["audit_mismatches"] == 0
        assert coordinator.counters["quarantines"] == 0


class TestRedelivery:
    def test_redelivered_lease_is_a_row_of_noops(self, tmp_path, baseline):
        # at-least-once delivery: resubmitting a whole lease's cells (a
        # worker redelivering after an outage) folds nothing twice --
        # every one comes back as a counted duplicate
        coordinator = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = coordinator.register({"name": "again"})["worker_id"]
        reply = coordinator.lease(worker_id, N_CELLS)
        entries = []
        for payload in reply["cells"]:
            record, timing = run_cell(payload)
            entries.append((payload["cell_id"], record, timing,
                            sealed(payload, record)))

        def deliver():
            return [coordinator.submit(worker_id, reply["lease_id"], *entry)
                    for entry in entries]

        first = deliver()
        assert all(r["accepted"] for r in first)
        assert first[-1]["done"] is True
        assert all(r.get("duplicate") for r in deliver())
        assert coordinator.counters["duplicate_submits"] == N_CELLS
        coordinator.close()
        assert coordinator.store.results_bytes() == baseline


class TestPoisonCell:
    def test_repeat_killer_cell_is_contained(self, tmp_path, baseline):
        # every worker that leases the first cell dies on it.  After two
        # distinct worker deaths the cell must be declared poisoned and
        # terminally recorded, letting the surviving worker finish the
        # rest of the campaign untouched.
        spec = CampaignSpec.from_dict(SWEEP)
        poison_id = spec.expand()[0].cell_id
        faults = {i: Faults(die_on_cells=(poison_id,)) for i in range(3)}
        coordinator = _coordinator(
            tmp_path, lease_cells=1, poison_kill_threshold=2,
        )
        summaries = run_local_fleet(coordinator, 3, faults)
        coordinator.close()
        assert coordinator.finished
        assert sum(1 for s in summaries if s["died"]) == 2
        assert coordinator.counters["kills"] == 2
        assert coordinator.counters["poisoned_cells"] == 1
        records = coordinator.store.records()
        assert records[0]["id"] == poison_id
        assert records[0]["status"] == "error"
        assert "poisoned: killed 2 distinct workers" in records[0]["detail"]
        # every other cell matches the pool baseline line for line
        expected = [
            json.loads(line)
            for line in baseline.decode("utf-8").splitlines()
        ]
        assert records[1:] == expected[1:]


class TestResourceGuards:
    MEMHOG = {
        "name": "hog",
        "seed": 1,
        "mem_limit_mb": 64,
        "families": [{"family": "memhog", "sizes": [512]}],
        "schedulers": ["peacock"],
    }

    def test_mem_limit_turns_oom_into_deterministic_error(self):
        [cell] = CampaignSpec.from_dict(self.MEMHOG).expand()
        payload = cell.payload()
        assert payload["mem_limit_mb"] == 64
        record, timing = run_cell(payload)
        assert record["status"] == "error"
        assert "MemoryError" in record["detail"]
        # deterministic: a second run (fresh worker, audit re-execution)
        # produces the identical record
        record2, _ = run_cell(payload)
        assert record2 == record

    def test_unlimited_memhog_cell_completes(self):
        spec = dict(self.MEMHOG)
        spec.pop("mem_limit_mb")
        spec["families"] = [{"family": "memhog", "sizes": [8]}]
        [cell] = CampaignSpec.from_dict(spec).expand()
        record, timing = run_cell(cell.payload())
        assert record["status"] == "ok"
        rss = timing.get("peak_rss_kb")
        assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_cpu_limit_raises_catchable_timeout(self):
        import sys

        from repro.campaign.runner import resource_guard
        from repro.errors import ScheduleTimeoutError

        if sys.platform not in ("linux", "darwin"):
            pytest.skip("rlimit guards are POSIX-only")
        with pytest.raises(ScheduleTimeoutError, match="cpu limit"):
            with resource_guard(None, 0.1):
                while True:
                    sum(range(10000))

    def test_guard_without_limits_is_a_noop(self):
        from repro.campaign.runner import resource_guard

        with resource_guard(None, None):
            assert sum(range(10)) == 45
