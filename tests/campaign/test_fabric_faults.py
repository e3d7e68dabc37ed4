"""Fault-injection tests for the campaign fabric.

The fabric's contract: an N-worker fleet -- surviving worker deaths,
frozen heartbeats, and dropped / duplicated / delayed submissions --
produces a ``results.jsonl`` byte-identical to the single-host pool
runner.  Every scenario here attacks one clause of that contract with
the deterministic fault harness (``tests/campaign/fabric_helpers.py``).
"""

import random

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.fabric import Coordinator, FabricWorker, LocalClient
from repro.campaign.runner import run_cell
from repro.errors import CampaignError
from tests.campaign.fabric_helpers import (
    Faults,
    fast_retries,
    faulty_worker_main,
    run_local_fleet,
    sealed,
)

SWEEP = {
    "name": "fab",
    "seed": 3,
    "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
    "schedulers": ["peacock", "greedy-slf"],
}
N_CELLS = 8

#: fast-converging fabric knobs for fault scenarios (with fast_retries)
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


class TestFleetDeterminism:
    def test_three_worker_fleet_matches_pool_runner(self, tmp_path, baseline):
        coordinator = _coordinator(tmp_path, lease_cells=2)
        summaries = run_local_fleet(coordinator, 3)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert sum(s["cells_done"] for s in summaries) == N_CELLS

    def test_single_worker_fleet_matches_pool_runner(self, tmp_path, baseline):
        coordinator = _coordinator(tmp_path)
        run_local_fleet(coordinator, 1)
        coordinator.close()
        assert coordinator.store.results_bytes() == baseline

    def test_out_of_order_shards_fold_canonically(self, tmp_path, baseline):
        # drive the protocol by hand: compute every cell, submit in
        # reverse canonical order -- the store must still receive the
        # canonical sequence
        coordinator = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = coordinator.register({"name": "manual"})["worker_id"]
        reply = coordinator.lease(worker_id, N_CELLS)
        for payload in reversed(reply["cells"]):
            record, timing = run_cell(payload)
            coordinator.submit(
                worker_id, reply["lease_id"], payload["cell_id"], record,
                timing, sealed(payload, record),
            )
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline


class TestChaosFaults:
    def test_duplicate_submits_are_counted_noops(self, tmp_path, baseline):
        faults = {0: Faults(duplicate_submits=tuple(range(N_CELLS)))}
        coordinator = _coordinator(tmp_path)
        run_local_fleet(coordinator, 1, faults)
        coordinator.close()
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["duplicate_submits"] == N_CELLS

    def test_dropped_submit_is_reclaimed_and_rerun(self, tmp_path, baseline):
        # worker 0 loses its first shard on the wire but stays alive; the
        # hard lease-lifetime cap must pry the cell loose anyway
        faults = {0: Faults(drop_submits=(0,))}
        coordinator = _coordinator(tmp_path, lease_cells=1)
        run_local_fleet(coordinator, 2, faults)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["reclaims"] == 1

    def test_killed_worker_cells_are_reclaimed(self, tmp_path, baseline):
        # worker 0 dies after computing its first record, *before*
        # submitting it -- work done, coordinator unaware
        faults = {0: Faults(kill_after_cells=1)}
        coordinator = _coordinator(tmp_path, lease_cells=2)
        summaries = run_local_fleet(coordinator, 2, faults)
        coordinator.close()
        assert summaries[0]["died"] is True
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["reclaims"] == 2

    def test_frozen_heartbeats_reclaim_and_stale_submit_absorbed(
        self, tmp_path, baseline
    ):
        # worker 0 never heartbeats and naps before its first submit:
        # during the nap it is declared dead and its lease reclaimed, so
        # the delayed submit arrives stale -- and is absorbed
        faults = {0: Faults(freeze_heartbeats_after=0, delay_submits={0: 0.6})}
        coordinator = _coordinator(
            tmp_path, lease_cells=1, heartbeat_timeout_s=0.15
        )
        run_local_fleet(coordinator, 2, faults)
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["reclaims"] == 1
        assert coordinator.counters["stale_submits"] == 1


class TestTransientFailures:
    def test_bounded_retries_then_terminal_error_record(self, tmp_path):
        spec = {
            "name": "one",
            "families": [{"family": "reversal", "sizes": [4]}],
            "schedulers": ["peacock"],
        }
        clock = [0.0]
        coordinator = _coordinator(
            tmp_path, spec_dict=spec,
            max_transient_retries=2, clock=lambda: clock[0],
        )
        worker_id = coordinator.register({"name": "flaky"})["worker_id"]
        for attempt in range(3):
            reply = coordinator.lease(worker_id, 1)
            assert reply["cells"], f"no lease on attempt {attempt}"
            cell_id = reply["cells"][0]["cell_id"]
            outcome = coordinator.fail(
                worker_id, reply["lease_id"], cell_id, "disk on fire"
            )
            clock[0] += 1.0  # step past the retry backoff
        assert outcome["retried"] is False
        assert coordinator.finished
        coordinator.close()
        [record] = coordinator.store.records()
        assert record["status"] == "error"
        assert "disk on fire" in record["detail"]
        assert "gave up after 3 attempts" in record["detail"]
        assert coordinator.counters["transient_failures"] == 3
        assert coordinator.counters["retries"] == 2

    def test_worker_level_exception_retries_to_success(self, tmp_path, baseline):
        # the first run_cell call blows up at the harness level; the
        # retry (same worker, later lease) succeeds and output is intact
        failures = {"left": 1}

        def flaky_run_cell(payload):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("simulated harness OOM")
            return run_cell(payload)

        coordinator = _coordinator(tmp_path, lease_cells=1)
        worker = FabricWorker(
            LocalClient(coordinator), name="flaky", run_cell_fn=flaky_run_cell
        )
        worker.run()
        coordinator.close()
        assert coordinator.finished
        assert coordinator.store.results_bytes() == baseline
        assert coordinator.counters["transient_failures"] == 1
        assert coordinator.counters["retries"] == 1


class TestStaleFail:
    """A ``fail`` under a lease that no longer holds the cell is a no-op:
    the reclaim already charged the cell, which may be another's now."""

    #: how A's lease stopped holding cell 0 -> the cell's status after
    AFTER = {"reaped": "leased", "deregistered": "pending", "submitted": "done"}

    @pytest.fixture(params=sorted(AFTER))
    def stale(self, tmp_path, request):
        """A leased cell 0, then lost it: reaped (B is leased it and A is
        back), deregistered (drained), or submitted (the cell is done)."""
        clock = [0.0]
        coordinator = _coordinator(
            tmp_path, lease_ttl_s=10.0, heartbeat_interval_s=1.0,
            clock=lambda: clock[0],
        )
        a = coordinator.register({"name": "a"})["worker_id"]
        b = coordinator.register({"name": "b"})["worker_id"]
        grant = coordinator.lease(a, 1)
        payload = grant["cells"][0]
        if request.param == "reaped":
            clock[0] = 2.0
            coordinator.heartbeat(b)
            clock[0] = 4.0
            coordinator.heartbeat(b)  # a is dead; its cell was charged a kill
            clock[0] = 6.0
            held = coordinator.lease(b, 1)
            assert held["cells"][0]["cell_id"] == payload["cell_id"]
        elif request.param == "deregistered":
            assert coordinator.deregister(a)["requeued"] == 1
        else:
            record, timing = run_cell(payload)
            assert coordinator.submit(
                a, grant["lease_id"], payload["cell_id"], record, timing,
                sealed(payload, record),
            )["accepted"]
        yield coordinator, a, grant["lease_id"], payload["cell_id"], request.param
        coordinator.close()

    def test_it_changes_nothing(self, stale):
        coordinator, a, lease_id, cell_id, how = stale
        journal = coordinator._journal.journal_path
        counters = dict(coordinator.counters)
        before = journal.read_bytes()
        reply = coordinator.fail(a, lease_id, cell_id, "late")
        assert reply == {"retried": False, "stale": True, "done": False}
        assert journal.read_bytes() == before
        assert coordinator.counters == counters
        assert coordinator._state.cells[0].status == self.AFTER[how]
        assert coordinator._state.cells[0].attempts == 0


class TestEscalation:
    ONE_TIMEOUT = {
        "name": "slowone",
        "families": [{"family": "reversal", "sizes": [4]}],
        "schedulers": ["optimal:rlf?node_budget=50"],
        "timeout_s": 0.05,
    }

    def _fake_timeout_record(self, payload):
        return {
            "cell": payload["index"], "id": payload["cell_id"],
            "family": payload["family"], "size": payload["size"],
            "repeat": payload["repeat"], "seed": payload["seed"],
            "scheduler": payload["scheduler"], "status": "timeout",
            "rounds": None, "touches": None, "verified": None,
            "detail": "exceeded budget",
        }

    def test_timeout_escalates_once_with_scaled_budgets(self, tmp_path):
        clock = [0.0]
        coordinator = _coordinator(
            tmp_path, spec_dict=self.ONE_TIMEOUT,
            escalation_factor=4.0, clock=lambda: clock[0],
        )
        worker_id = coordinator.register({"name": "mt"})["worker_id"]
        reply = coordinator.lease(worker_id, 1)
        payload = reply["cells"][0]
        assert payload["timeout_s"] == pytest.approx(0.05)
        timing = {"id": payload["cell_id"], "wall_ms": 50.0}
        record = self._fake_timeout_record(payload)
        outcome = coordinator.submit(
            worker_id, reply["lease_id"], payload["cell_id"],
            record, timing, sealed(payload, record),
        )
        assert outcome["escalated"] is True
        assert coordinator.counters["escalations"] == 1
        # the re-leased payload carries the larger wall budget and the
        # scaled search budget for the exact engine
        reply = coordinator.lease(worker_id, 1)
        escalated = reply["cells"][0]
        assert escalated["timeout_s"] == pytest.approx(0.2)
        assert escalated["scheduler_params"] == {"node_budget": 200}
        # a second timeout is terminal, not re-escalated
        record = self._fake_timeout_record(escalated)
        outcome = coordinator.submit(
            worker_id, reply["lease_id"], escalated["cell_id"],
            record, timing, sealed(escalated, record),
        )
        assert outcome.get("escalated") is not True
        assert coordinator.finished
        coordinator.close()
        [record] = coordinator.store.records()
        assert record["status"] == "timeout"
        assert coordinator.counters["escalations"] == 1

    def test_escalation_disabled_folds_first_timeout(self, tmp_path):
        coordinator = _coordinator(
            tmp_path, spec_dict=self.ONE_TIMEOUT, escalation_factor=0.0
        )
        worker_id = coordinator.register({"name": "mt"})["worker_id"]
        reply = coordinator.lease(worker_id, 1)
        payload = reply["cells"][0]
        record = self._fake_timeout_record(payload)
        coordinator.submit(
            worker_id, reply["lease_id"], payload["cell_id"], record,
            {"id": payload["cell_id"], "wall_ms": 50.0},
            sealed(payload, record),
        )
        assert coordinator.finished
        assert coordinator.counters["escalations"] == 0
        coordinator.close()

    def test_escalated_rerun_recovers_end_to_end(self, tmp_path):
        # a sleeper scheduler that outlives the first wall budget but
        # fits the escalated one; the worker is a fleet *thread*: the
        # deadline is noticed by the first poll after the nap
        import time

        from repro.core.registry import (
            REGISTRY, register_scheduler, resolve_scheduler,
        )

        inner = resolve_scheduler("peacock")

        def napping_invoke(problem, cleanup, oracle, properties, params):
            time.sleep(0.4)
            return inner.invoke(problem, cleanup, oracle, None, {})

        register_scheduler("napper", invoke=napping_invoke)
        try:
            spec = {
                "name": "nap",
                "families": [{"family": "reversal", "sizes": [4]}],
                "schedulers": ["napper"],
                "timeout_s": 0.15,
            }
            coordinator = _coordinator(
                tmp_path, spec_dict=spec,
                lease_ttl_s=5.0, escalation_factor=8.0,
            )
            run_local_fleet(coordinator, 1)
            coordinator.close()
            assert coordinator.finished
            assert coordinator.counters["escalations"] == 1
            [record] = coordinator.store.records()
            assert record["status"] == "ok"
            assert record["scheduler"] == "napper"
        finally:
            REGISTRY.unregister("napper")

    def test_fleet_thread_honours_the_cell_timeout(self, tmp_path, monkeypatch):
        from repro.core import deadline
        from tests.core.test_deadline_safe_points import _PollClock

        spec = {
            "name": "slow-fleet",
            "families": [{"family": "reversal", "sizes": [12]}],
            "schedulers": ["optimal:rlf"],
            "timeout_s": 1.0,
        }
        # the search is over in about a millisecond: instead of racing a
        # real limit, the fifth of its 14 polls reads a clock past it
        monkeypatch.setattr(deadline, "time", _PollClock(fire_at=5))
        coordinator = _coordinator(
            tmp_path, spec_dict=spec, escalation_factor=0
        )
        run_local_fleet(coordinator, 1)
        coordinator.close()
        assert coordinator.finished
        [record] = coordinator.store.records()
        assert record["status"] == "timeout"
        assert record["detail"] == "exceeded 1.0s"


class TestHttpFleet:
    def test_sigkilled_process_worker_over_http(self, tmp_path, baseline):
        # the real thing: process workers over real HTTP, one SIGKILLed
        # mid-cell (after computing, before submitting); the survivor
        # finishes the campaign and bytes still match the pool runner
        import multiprocessing

        from repro.campaign.fabric import worker_main
        from repro.rest.api import build_campaign_api
        from repro.rest.http_binding import RestHttpServer

        api = build_campaign_api(campaign_root=str(tmp_path))
        server = RestHttpServer(api, port=0)
        server.start()
        try:
            spec = CampaignSpec.from_dict(SWEEP)
            api.campaigns.serve({
                "spec": spec.to_dict(),
                "lease_ttl_s": 0.5,
                "heartbeat_interval_s": 0.1,
                "lease_cells": 2,
            })
            coordinator = api.campaigns.fabric(spec.campaign_id)
            ctx = multiprocessing.get_context("spawn")
            victim = ctx.Process(
                target=faulty_worker_main,
                args=(server.url, spec.campaign_id,
                      Faults(kill_after_cells=2)),
                kwargs={"name": "victim"},
                daemon=True,
            )
            survivor = ctx.Process(
                target=worker_main, args=(server.url, spec.campaign_id),
                kwargs={"name": "survivor"},
                daemon=True,
            )
            # the victim works alone first so it is guaranteed to be the
            # one holding cells when the SIGKILL lands
            victim.start()
            victim.join(timeout=30)
            assert victim.exitcode == -9  # actually SIGKILLed
            assert not coordinator.finished
            survivor.start()
            assert coordinator.wait(timeout_s=60.0)
            survivor.join(timeout=10)
            coordinator.close()
            assert coordinator.store.results_bytes() == baseline
            assert coordinator.counters["reclaims"] == 1
        finally:
            server.stop()
            api.campaigns.close()


class TestResume:
    def test_coordinator_restart_resumes_canonical_prefix(
        self, tmp_path, baseline
    ):
        faults = {0: Faults(kill_after_cells=3)}
        first = _coordinator(tmp_path, lease_cells=2)
        summaries = run_local_fleet(first, 1, faults)
        first.close()
        assert summaries[0]["died"] is True
        assert not first.finished
        done_before = len(first.store.completed_ids())
        assert 0 < done_before < N_CELLS

        second = _coordinator(tmp_path)
        assert second.status()["done"] == done_before
        run_local_fleet(second, 2)
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline
        assert len(second.store.records()) == N_CELLS

    def test_non_prefix_results_refused(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP)
        first = _coordinator(tmp_path, lease_cells=N_CELLS)
        worker_id = first.register({"name": "manual"})["worker_id"]
        reply = first.lease(worker_id, N_CELLS)
        # complete only a non-prefix cell by writing it straight through
        # the store (simulating a corrupted / hand-edited run directory)
        payload = reply["cells"][3]
        record, timing = run_cell(payload)
        first.store.append(record, timing)
        first.close()
        with pytest.raises(CampaignError, match="canonical prefix"):
            Coordinator(spec, root=str(tmp_path), **FAST)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resume_after_kill_is_byte_deterministic(
        self, tmp_path, baseline, seed
    ):
        # property-style: kill a worker at a seed-derived point, resume
        # with a fresh coordinator + fleet (with duplicate-submit noise),
        # and the final bytes must still match the pool runner
        rng = random.Random(seed)
        kill_after = rng.randint(1, N_CELLS - 2)
        faults = {0: Faults(kill_after_cells=kill_after)}
        first = _coordinator(tmp_path, lease_cells=rng.choice([1, 2, 3]))
        run_local_fleet(first, 1, faults)
        first.close()
        assert not first.finished

        noise = {1: Faults(duplicate_submits=(0,))}
        second = _coordinator(tmp_path, lease_cells=rng.choice([1, 2]))
        run_local_fleet(second, 2, noise)
        second.close()
        assert second.finished
        assert second.store.results_bytes() == baseline
