"""Tests for the online churn controller.

Hand-built single-flow traces on a diamond topology pin down the
lifecycle machinery (cancel windows, preempt vs defer, failure-driven
re-planning, restorations); generated fat-tree traces check the
system-level contracts (scheduled runs are violation-free, the
unscheduled baseline is not, same trace → same metrics).

``data/churn_golden.json`` holds the full ``run_churn(...).to_dict()``
(lifecycles included) of :data:`GOLDEN_ROWS`, recorded at commit ddfcba9
*before* the audit walk moved onto ``UpdateProblem.walk``.  The
``scheduled=False`` rows are the ones whose probes loop, drop, bypass
the waypoint and cross failed links, which the perf ledger's digest
(scheduled runs only) never sees.  Re-record (only from a commit whose
results are the contract) with
``PYTHONPATH=src python tests/churn/test_controller.py``.
"""

import json
from pathlib import Path

import pytest

from repro.churn.controller import ChurnPolicy, OnlineChurnController, run_churn
from repro.churn.events import (
    LinkFailure,
    UpdateArrival,
    UpdateCancel,
    event_sort_key,
)
from repro.churn.metrics import ChurnMetrics
from repro.churn.traces import ChurnTrace, FlowSpec, generate_trace
from repro.dataplane.violations import PacketFate
from repro.errors import ChurnError
from repro.topology.graph import Topology

OLD_PATH = (1, 2, 3, 5)

GOLDEN = Path(__file__).parent / "data" / "churn_golden.json"

#: (kind, size, seed, scheduled, preempt) -- 100 arrivals/s over 200 ms
#: with two link failures each.
GOLDEN_ROWS = (
    ("fat-tree", 4, 15, True, True),
    ("fat-tree", 4, 16, False, True),
    ("fat-tree", 4, 17, False, False),
    ("fat-tree", 6, 17, True, True),
    ("fat-tree", 6, 18, False, True),
    ("fat-tree", 6, 19, True, False),
    ("wan", 24, 35, True, True),
    ("wan", 24, 36, False, True),
    ("wan", 24, 37, False, False),
    ("wan", 48, 59, True, True),
    ("wan", 48, 60, False, True),
    ("wan", 48, 61, True, False),
)


def golden_id(row) -> str:
    kind, size, seed, scheduled, preempt = row
    mode = "scheduled" if scheduled else "oneshot"
    return f"{kind}-{size}-s{seed}-{mode}-{'preempt' if preempt else 'defer'}"


def golden_run(row) -> dict:
    kind, size, seed, scheduled, preempt = row
    trace = generate_trace(
        kind, size, seed, rate_per_s=100.0, duration_ms=200.0, link_failures=2
    )
    policy = ChurnPolicy(scheduled=scheduled, preempt=preempt)
    return run_churn(trace, policy).to_dict()


def diamond(extra_links=()) -> Topology:
    topo = Topology("diamond")
    for node in range(1, 7):
        topo.add_switch(node)
    for a, b in [(1, 2), (2, 3), (3, 5), (1, 4), (4, 5), (1, 6), (6, 5),
                 *extra_links]:
        topo.add_link(a, b)
    return topo


def hand_trace(events, flows=None, topo=None) -> ChurnTrace:
    topo = topo or diamond()
    flows = flows if flows is not None else (FlowSpec("f0", OLD_PATH),)
    return ChurnTrace(
        name="hand",
        kind="hand",
        size=0,
        seed=3,
        topology=topo,
        flows=tuple(flows),
        events=tuple(sorted(events, key=event_sort_key)),
        duration_ms=100.0,
    )


def arrival(time_ms, request_id, target, flow_id="f0", waypointed=False):
    return UpdateArrival(
        time_ms=time_ms,
        request_id=request_id,
        flow_id=flow_id,
        target_path=tuple(target),
        waypointed=waypointed,
    )


def hops(path):
    return set(zip(path, path[1:]))


class TestSingleUpdate:
    def test_simple_arrival_completes_clean(self):
        trace = hand_trace([arrival(1.0, "r0", (1, 4, 5))])
        metrics = run_churn(trace)
        assert metrics.quiescent
        assert metrics.arrivals == 1 and metrics.completed == 1
        assert metrics.transient_violations == 0
        record = metrics.lifecycle("r0")
        assert record.status == "done"
        # install 4, switch 1, then clean up 2 and 3: three safe rounds
        assert len(record.rounds) == 3
        assert record.flips == 4
        assert all(t.finished_ms is not None for t in record.rounds)

    def test_noop_arrival_settles_without_rounds(self):
        trace = hand_trace([arrival(1.0, "r0", OLD_PATH)])
        metrics = run_churn(trace)
        assert metrics.noops == 1
        record = metrics.lifecycle("r0")
        assert record.status == "noop"
        assert record.flips == 0 and not record.rounds

    def test_waypointed_update_completes_clean(self):
        trace = hand_trace(
            [arrival(1.0, "r0", (1, 2, 3, 4, 5), waypointed=True)],
            topo=diamond(extra_links=[(3, 4)]),
        )
        metrics = run_churn(trace)
        record = metrics.lifecycle("r0")
        assert record.status == "done"
        assert record.waypointed
        assert metrics.transient_violations == 0

    def test_concurrent_flows_tracked_in_flight(self):
        flows = (FlowSpec("f0", OLD_PATH), FlowSpec("f1", (1, 6, 5)))
        trace = hand_trace(
            [arrival(0.0, "r0", (1, 4, 5), flow_id="f0"),
             arrival(0.0, "r1", (1, 2, 3, 5), flow_id="f1")],
            flows=flows,
        )
        metrics = run_churn(trace)
        assert metrics.completed == 2
        assert metrics.peak_in_flight == 2
        assert metrics.transient_violations == 0

    def test_unknown_flow_is_a_trace_error(self):
        trace = hand_trace([arrival(1.0, "r0", (1, 4, 5), flow_id="ghost")])
        with pytest.raises(ChurnError):
            run_churn(trace)


class TestCancellation:
    def test_cancel_in_plan_window_retracts_everything(self):
        # plan at t=1, issue at t=1+plan_latency(2): cancel lands between
        trace = hand_trace([
            arrival(1.0, "r0", (1, 4, 5)),
            UpdateCancel(time_ms=2.0, request_id="r0"),
        ])
        metrics = run_churn(trace)
        record = metrics.lifecycle("r0")
        assert record.status == "cancelled"
        assert record.flips == 0 and not record.rounds
        assert metrics.rounds_issued == 0
        assert metrics.cancelled == 1

    def test_cancel_mid_round_finishes_the_round_first(self):
        # round 1 issues at t=2 and flips at t=3; cancel at t=2.5
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            UpdateCancel(time_ms=2.5, request_id="r0"),
        ])
        metrics = run_churn(trace)
        record = metrics.lifecycle("r0")
        assert record.status == "cancelled"
        assert record.flips >= 1          # the issued round was not torn up
        assert len(record.rounds) == 1    # but no further round was planned
        assert metrics.transient_violations == 0

    def test_cancel_of_queued_request(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            arrival(0.5, "r1", (1, 6, 5)),
            UpdateCancel(time_ms=1.0, request_id="r1"),
        ])
        metrics = run_churn(trace, ChurnPolicy(preempt=False))
        assert metrics.lifecycle("r0").status == "done"
        assert metrics.lifecycle("r1").status == "cancelled"
        assert metrics.lifecycle("r1").flips == 0

    def test_cancel_of_settled_or_unknown_request_is_noop(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            UpdateCancel(time_ms=50.0, request_id="r0"),
            UpdateCancel(time_ms=1.0, request_id="ghost"),
        ])
        metrics = run_churn(trace)
        assert metrics.lifecycle("r0").status == "done"
        assert metrics.cancels_noop == 2


class TestMidUpdateArrivals:
    def test_preempt_supersedes_planning_update(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            arrival(0.5, "r1", (1, 6, 5)),
        ])
        metrics = run_churn(trace, ChurnPolicy(preempt=True))
        old = metrics.lifecycle("r0")
        assert old.status == "superseded"
        assert old.flips == 0  # retracted inside the plan window
        assert metrics.lifecycle("r1").status == "done"
        assert metrics.superseded == 1

    def test_defer_runs_both_to_completion(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            arrival(0.5, "r1", (1, 6, 5)),
        ])
        metrics = run_churn(trace, ChurnPolicy(preempt=False))
        assert metrics.lifecycle("r0").status == "done"
        assert metrics.lifecycle("r1").status == "done"
        assert metrics.completed == 2
        assert metrics.superseded == 0
        # the deferred request started only after the first settled
        first = metrics.lifecycle("r0")
        second = metrics.lifecycle("r1")
        assert second.started_ms >= first.settled_ms

    def test_preempt_chain_keeps_only_newest(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            arrival(0.2, "r1", (1, 6, 5)),
            arrival(0.4, "r2", (1, 4, 5)),
        ])
        metrics = run_churn(trace, ChurnPolicy(preempt=True))
        assert metrics.lifecycle("r0").status == "superseded"
        assert metrics.lifecycle("r1").status == "superseded"
        assert metrics.lifecycle("r2").status == "done"


class TestLinkFailures:
    def test_failure_forces_replan_off_dead_target(self):
        trace = hand_trace([
            arrival(0.0, "r0", (1, 4, 5)),
            LinkFailure(time_ms=0.5, link=(4, 5)),
        ])
        metrics = run_churn(trace)
        assert metrics.quiescent
        assert metrics.replans >= 1
        record = metrics.lifecycle("r0")
        assert record.status in ("done", "noop")
        # re-run with direct controller access to inspect the final path
        from repro.churn.controller import OnlineChurnController

        controller = OnlineChurnController(trace)
        controller.run()
        final = controller.flows["f0"].current_path
        assert (4, 5) not in hops(final) and (5, 4) not in hops(final)

    def test_failure_restores_stranded_idle_flow(self):
        trace = hand_trace([LinkFailure(time_ms=1.0, link=(2, 3))])
        from repro.churn.controller import OnlineChurnController

        controller = OnlineChurnController(trace)
        metrics = controller.run()
        assert metrics.restorations == 1
        record = metrics.lifecycle("f0-restore1")
        assert record.status == "done"
        final = controller.flows["f0"].current_path
        assert (2, 3) not in hops(final) and (3, 2) not in hops(final)
        assert metrics.quiescent

    def test_arrival_onto_already_dead_path_reroutes(self):
        trace = hand_trace([
            LinkFailure(time_ms=0.5, link=(4, 5)),
            arrival(1.0, "r0", (1, 4, 5)),
        ])
        from repro.churn.controller import OnlineChurnController

        controller = OnlineChurnController(trace)
        metrics = controller.run()
        record = metrics.lifecycle("r0")
        assert record.status in ("done", "noop")
        assert record.replans >= 1 or record.status == "noop"
        final = controller.flows["f0"].current_path
        assert (4, 5) not in hops(final) and (5, 4) not in hops(final)


class TestSystemContracts:
    def test_scheduled_run_is_violation_free(self):
        trace = generate_trace("fat-tree", 4, 7, duration_ms=200.0)
        metrics = run_churn(trace, ChurnPolicy(scheduled=True))
        assert metrics.quiescent
        assert metrics.transient_violations == 0
        assert metrics.violations.injected > 0  # probes actually ran

    def test_unscheduled_baseline_shows_violations(self):
        trace = generate_trace("fat-tree", 4, 7, duration_ms=200.0)
        metrics = run_churn(trace, ChurnPolicy(scheduled=False))
        assert metrics.quiescent
        assert metrics.transient_violations > 0

    def test_same_trace_same_metrics(self):
        trace = generate_trace("fat-tree", 4, 7, duration_ms=200.0)
        first = run_churn(trace, ChurnPolicy(scheduled=True)).to_dict()
        second = run_churn(trace, ChurnPolicy(scheduled=True)).to_dict()
        assert first == second


def fresh_audit(controller, active) -> tuple:
    """``(fate, crossed a failed link)`` of a fresh walk, classified here."""
    walk = active.problem.walk(active.committed)
    waypoint = active.problem.waypoint
    if walk.delivered:
        bypassed = waypoint is not None and waypoint not in walk.visited
        fate = PacketFate.BYPASSED_WAYPOINT if bypassed else PacketFate.DELIVERED
    else:
        fate = PacketFate.LOOPED if walk.looped else PacketFate.DROPPED
    links = zip(walk.visited, walk.visited[1:])
    return fate, any(link in controller.failed_links for link in links)


def audited(monkeypatch) -> dict:
    """Hold every recorded probe verdict to :func:`fresh_audit`, counting
    the probes, the verdicts served from the cache and those a link
    failure made the audit classify again."""
    counts = dict.fromkeys(("probes", "cached", "reclassified"), 0)
    recorded = []
    record_probe, probe = ChurnMetrics.record_probe, OnlineChurnController._probe

    def record(metrics, lifecycle, fate, crossed):
        recorded.append((fate, crossed))
        record_probe(metrics, lifecycle, fate, crossed)

    def checked(controller, active):
        before = active.audit
        probe(controller, active)
        assert recorded.pop() == fresh_audit(controller, active)
        counts["probes"] += 1
        counts["cached"] += active.audit is before
        counts["reclassified"] += before is not None and active.audit is not before

    monkeypatch.setattr(ChurnMetrics, "record_probe", record)
    monkeypatch.setattr(OnlineChurnController, "_probe", checked)
    return counts


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestGoldenReplay:
    @pytest.mark.parametrize("row", GOLDEN_ROWS, ids=golden_id)
    def test_run_reproduces_the_recorded_metrics(self, row, golden):
        recorded = golden[golden_id(row)]
        replayed = golden_run(row)
        assert json.dumps(replayed, sort_keys=True) == json.dumps(
            recorded, sort_keys=True
        )

    @pytest.mark.parametrize("row", GOLDEN_ROWS, ids=golden_id)
    def test_replayed_audit_walk_is_a_fresh_walk(self, row, golden, monkeypatch):
        # the audit classifies a walk once and keeps the verdict until a
        # flip lands on the walk or a link fails; every verdict it records
        # must be the one a fresh walk gives under that moment's failures
        counts = audited(monkeypatch)
        replayed = golden_run(row)
        assert json.dumps(replayed, sort_keys=True) == json.dumps(
            golden[golden_id(row)], sort_keys=True
        )
        assert counts["probes"] == replayed["flips"] > 0
        assert counts["cached"] > 0, counts

    def test_a_link_failure_reclassifies_a_cached_walk(self, monkeypatch):
        counts = audited(monkeypatch)
        for row in GOLDEN_ROWS:
            golden_run(row)
        assert counts["reclassified"] > 0, counts

    def test_oneshot_rows_exercise_every_violation_kind(self, golden):
        totals = dict.fromkeys(("looped", "dropped", "bypassed_waypoint"), 0)
        crossings = 0
        for row in GOLDEN_ROWS:
            metrics = golden[golden_id(row)]
            crossings += metrics["failed_link_crossings"]
            if row[3]:
                assert metrics["transient_violations"] == 0
            else:
                for kind in totals:
                    totals[kind] += metrics["violations"][kind]
        assert all(totals.values()) and crossings, (totals, crossings)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({golden_id(row): golden_run(row) for row in GOLDEN_ROWS},
                   sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"recorded {len(GOLDEN_ROWS)} runs -> {GOLDEN}")
