"""Tests for the campaign execution engine: determinism, resume, isolation."""

import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, RunStore, run_cell
from repro.core import deadline
from repro.errors import CampaignError
from tests.core.test_deadline_safe_points import _PollClock

SWEEP = {
    "name": "sweep",
    "seed": 11,
    "families": [
        {"family": "reversal", "sizes": [6, 10]},
        {"family": "random-update", "sizes": [8, 10], "repeats": 2},
        {"family": "slalom", "sizes": [1, 3]},
        {"family": "multipolicy", "sizes": [8]},
    ],
    "schedulers": ["peacock", "greedy-slf", "wayup"],
    "verify": True,
}


def _payload(spec_dict, cell_id):
    for cell in CampaignSpec.from_dict(spec_dict).expand():
        if cell.cell_id == cell_id:
            return cell.payload()
    raise KeyError(cell_id)


class TestRunCell:
    def test_ok_record_shape(self):
        record, timing = run_cell(_payload(SWEEP, "reversal-n10-r0@peacock"))
        assert record["status"] == "ok"
        assert record["rounds"] == 3
        assert record["touches"] == 9
        assert record["verified"] is True
        assert timing["id"] == record["id"] and timing["wall_ms"] >= 0

    def test_unsupported_scheduler_family_pair(self):
        record, _ = run_cell(_payload(SWEEP, "reversal-n6-r0@wayup"))
        assert record["status"] == "unsupported"
        assert record["rounds"] is None

    def test_infeasible_is_captured(self):
        spec = {
            "name": "x",
            "families": [{"family": "crossing"}],
            "schedulers": ["combined:wpe+slf+blackhole"],
        }
        record, _ = run_cell(
            _payload(spec, "crossing-n0-r0@combined:wpe+slf+blackhole")
        )
        assert record["status"] == "infeasible"
        assert record["detail"]

    def test_error_is_captured_not_raised(self):
        payload = _payload(SWEEP, "reversal-n6-r0@peacock")
        payload["scheduler"] = "no-such-scheduler"
        record, _ = run_cell(payload)
        assert record["status"] == "error"
        assert "no-such-scheduler" in record["detail"]

    def test_timeout_is_captured(self, monkeypatch):
        # the exact minimum-round search on a 12-node reversal polls the
        # deadline 14 times (and is done in about a millisecond, so no
        # real limit is short enough to race it): the fifth poll reads a
        # clock past the limit and must cut the search off
        spec = {
            "name": "slow",
            "families": [{"family": "reversal", "sizes": [12],
                          "schedulers": ["optimal:rlf"]}],
            "schedulers": ["peacock"],
            "timeout_s": 1.0,
        }
        monkeypatch.setattr(deadline, "time", _PollClock(fire_at=5))
        record, _ = run_cell(_payload(spec, "reversal-n12-r0@optimal:rlf"))
        assert record["status"] == "timeout"
        assert "exceeded 1.0s" in record["detail"]

    def test_verification_failure_is_recorded_and_counted(self, tmp_path):
        # one-shot on a reversal breaks relaxed loop freedom: the record
        # stays status=ok but verified=false, and the status counter sees it
        spec = CampaignSpec.from_dict({
            "name": "unsafe",
            "families": [{"family": "reversal", "sizes": [6]}],
            "schedulers": ["oneshot"],
            "properties": ["rlf", "blackhole"],
            "verify": True,
        })
        status = CampaignRunner(spec, root=str(tmp_path), workers=1).run()
        assert status["by_status"]["ok"] == 1
        assert status["verification_failures"] == 1

    def test_timeout_leaves_the_cached_unit_usable(self, monkeypatch):
        # nothing is wiped after a timeout: the search stopped at a safe
        # point, so the cells that follow on the same cached problem (and
        # its shared oracles, memos and nogoods) record what a cold run does
        from repro.campaign.runner import _unit_cache
        from repro.core.oracle import clear_registry

        spec = {
            "name": "after",
            "families": [{"family": "reversal", "sizes": [12]}],
            "schedulers": [
                "optimal:rlf", "optimal:slf", "peacock", "greedy-slf",
                "combined:slf+blackhole",
            ],
            "verify": True,
        }
        payloads = [cell.payload() for cell in CampaignSpec.from_dict(spec).expand()]

        def cold():
            _unit_cache().clear()
            clear_registry()

        cold()
        expected = [run_cell(payload)[0] for payload in payloads]
        for victim in payloads[:2]:
            cold()
            with monkeypatch.context() as patch:
                # stopped at its fifth poll, in the middle of the search
                patch.setattr(deadline, "time", _PollClock(fire_at=5))
                record, _ = run_cell({**victim, "timeout_s": 1.0})
            assert record["status"] == "timeout"
            [unit] = _unit_cache().values()
            assert [run_cell(payload)[0] for payload in payloads] == expected
            assert list(_unit_cache().values()) == [unit]

    def test_timeout_enforced_from_worker_thread(self, tmp_path, monkeypatch):
        # e.g. the REST service runs campaigns from an HTTP handler thread;
        # the deadline is per thread, so the cell times out right there --
        # no pool, no child process
        import threading

        from repro.campaign import runner as runner_module

        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(runner_module.multiprocessing, "Pool", no_pool)
        spec = CampaignSpec.from_dict({
            "name": "slow-thread",
            "families": [{"family": "reversal", "sizes": [12]}],
            "schedulers": ["optimal:rlf"],
            "timeout_s": 1.0,
        })
        # the deadline is polled, not signalled: the fifth poll on the
        # worker thread reads a clock past the limit
        monkeypatch.setattr(deadline, "time", _PollClock(fire_at=5))
        outcome = {}

        def run():
            runner = CampaignRunner(spec, root=str(tmp_path), workers=1)
            outcome["status"] = runner.run()

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome["status"]["by_status"]["timeout"] == 1

    def test_two_phase_baseline_sweeps(self):
        # the registry made the two-phase plan sweepable: rounds/touches
        # surface through the envelope, verification is by construction
        spec = {
            "name": "2pc",
            "families": [{"family": "reversal", "sizes": [8]}],
            "schedulers": ["two-phase"],
            "verify": True,
        }
        record, _ = run_cell(_payload(spec, "reversal-n8-r0@two-phase"))
        assert record["status"] == "ok"
        assert record["rounds"] == 2  # prepare + flip (reversals need no GC)
        assert record["touches"] >= 7
        assert record["verified"] is True

    def test_scheduler_alias_resolves_in_cells(self):
        payload = _payload(SWEEP, "reversal-n6-r0@peacock")
        payload["scheduler"] = "greedy_slf"
        record, _ = run_cell(payload)
        assert record["status"] == "ok"

    def test_noop_instance(self):
        spec = {
            "name": "noop",
            "families": [{"family": "sawtooth", "sizes": [10],
                          "params": {"block": 1}}],
            "schedulers": ["peacock"],
        }
        record, _ = run_cell(_payload(spec, "sawtooth-block1-n10-r0@peacock"))
        assert record["status"] == "noop"
        assert record["rounds"] == 0 and record["touches"] == 0


class TestDeterminism:
    def test_worker_count_does_not_change_results_bytes(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        serial = CampaignRunner(spec, root=str(tmp_path / "serial"), workers=1)
        serial.run()
        parallel = CampaignRunner(spec, root=str(tmp_path / "par"), workers=4)
        parallel.run()
        assert serial.store.results_bytes() == parallel.store.results_bytes()
        assert serial.store.results_bytes()  # non-empty

    def test_rerun_is_identical(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        CampaignRunner(spec, root=str(tmp_path / "a"), workers=2).run()
        CampaignRunner(spec, root=str(tmp_path / "b"), workers=1).run()
        a = RunStore(str(tmp_path / "a"), spec.campaign_id)
        b = RunStore(str(tmp_path / "b"), spec.campaign_id)
        assert a.results_bytes() == b.results_bytes()


class TestResume:
    def test_interrupted_run_resumes_to_identical_output(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        reference = CampaignRunner(spec, root=str(tmp_path / "ref"), workers=1)
        reference.run()

        class Interrupt(Exception):
            pass

        partial = CampaignRunner(spec, root=str(tmp_path / "partial"), workers=1)

        def bomb(record, done, total):
            if done == 7:
                raise Interrupt()

        with pytest.raises(Interrupt):
            partial.run(progress=bomb)
        store = RunStore(str(tmp_path / "partial"), spec.campaign_id)
        assert len(store.records()) == 7

        resumed = CampaignRunner(spec, root=str(tmp_path / "partial"), workers=1)
        executed = []
        status = resumed.run(progress=lambda r, d, t: executed.append(r["id"]))
        assert status["remaining"] == 0
        assert len(executed) == status["total"] - 7
        assert store.results_bytes() == reference.store.results_bytes()

    def test_resume_repairs_truncated_tail(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        reference = CampaignRunner(spec, root=str(tmp_path / "ref"), workers=1)
        reference.run()
        reference_bytes = reference.store.results_bytes()

        victim_root = tmp_path / "victim"
        victim = CampaignRunner(spec, root=str(victim_root), workers=1)
        victim.run()
        results = victim_root / spec.campaign_id / "results.jsonl"
        lines = results.read_bytes().splitlines(keepends=True)
        # kill -9 mid-write: two whole records plus half a third
        results.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])

        status = CampaignRunner(spec, root=str(victim_root), workers=1).run()
        assert status["remaining"] == 0
        assert RunStore(str(victim_root), spec.campaign_id).results_bytes() \
            == reference_bytes

    def test_spec_change_under_same_id_is_refused(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        CampaignRunner(spec, root=str(tmp_path), workers=1).run()
        changed = CampaignSpec.from_dict({**SWEEP, "seed": 12})
        # different spec hash -> different id -> fresh directory; force a
        # collision by reusing the existing store
        store = RunStore(str(tmp_path), spec.campaign_id)
        with pytest.raises(CampaignError):
            CampaignRunner(changed, workers=1, store=store).run()


class TestStatusCounters:
    def test_by_status_counts(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        status = CampaignRunner(spec, root=str(tmp_path), workers=1).run()
        assert status["total"] == len(spec.expand())
        assert status["done"] == status["total"]
        counted = sum(status["by_status"].values())
        assert counted == status["total"]
        # wayup on the waypointless families shows up as unsupported
        assert status["by_status"]["unsupported"] > 0
        assert status["by_status"]["error"] == 0

    def test_records_are_canonical_json_lines(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        runner = CampaignRunner(spec, root=str(tmp_path), workers=1)
        runner.run()
        raw = runner.store.results_bytes().decode("utf-8").splitlines()
        for line in raw:
            record = json.loads(line)
            assert json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ) == line


class TestUnitCache:
    """Per-worker work-unit cache: same cell identity -> same problem objects."""

    def test_same_identity_reuses_the_unit(self):
        from repro.campaign import runner as runner_mod

        runner_mod._unit_cache().clear()
        first = runner_mod._cached_unit("reversal", 6, {}, 1)
        again = runner_mod._cached_unit("reversal", 6, {}, 1)
        assert again is first
        other = runner_mod._cached_unit("reversal", 7, {}, 1)
        assert other is not first
        runner_mod._unit_cache().clear()

    def test_cache_is_bounded(self, monkeypatch):
        from repro.campaign import runner as runner_mod

        runner_mod._unit_cache().clear()
        monkeypatch.setattr(runner_mod, "_UNIT_CACHE_LIMIT", 2)
        units = [runner_mod._cached_unit("reversal", n, {}, 0) for n in (5, 6, 7)]
        assert len(runner_mod._unit_cache()) <= 2
        # the evicted first entry is rebuilt as a fresh object
        rebuilt = runner_mod._cached_unit("reversal", 5, {}, 0)
        assert rebuilt is not units[0]
        runner_mod._unit_cache().clear()

    def test_scheduler_sweep_shares_oracles_across_cells(self):
        from repro.campaign import runner as runner_mod

        runner_mod._unit_cache().clear()
        spec = {
            "name": "warm",
            "families": [{"family": "reversal", "sizes": [8]}],
            "schedulers": ["peacock", "greedy-slf"],
            "verify": False,
        }
        records = []
        for cell in CampaignSpec.from_dict(spec).expand():
            record, _ = run_cell(cell.payload())
            records.append(record)
        assert all(record["status"] == "ok" for record in records)
        # both scheduler cells ran against one shared problem object
        assert len(runner_mod._unit_cache()) == 1
        (unit,) = runner_mod._unit_cache().values()
        from repro.core.oracle import _CACHE_ATTR

        assert hasattr(unit.problems[0], _CACHE_ATTR)
        # caches are thread-local: another thread sees a fresh one
        import threading

        seen = {}
        thread = threading.Thread(
            target=lambda: seen.setdefault("size", len(runner_mod._unit_cache()))
        )
        thread.start()
        thread.join()
        assert seen["size"] == 0
        runner_mod._unit_cache().clear()
