"""Tests for churn-run accounting."""

import json

import pytest

from repro.churn.metrics import ChurnMetrics, UpdateLifecycle
from repro.controller.update_queue import RoundTiming
from repro.dataplane.violations import PacketFate


def _record(request_id="r0"):
    return UpdateLifecycle(request_id=request_id, flow_id="f0", arrived_ms=1.0)


class TestProbeAccounting:
    def test_clean_probe(self):
        metrics = ChurnMetrics()
        record = _record()
        metrics.record_probe(record, PacketFate.DELIVERED, crossed_failed_link=False)
        assert metrics.violations.injected == 1
        assert metrics.transient_violations == 0
        assert record.probes == 1 and record.violations == 0

    def test_violating_probe(self):
        metrics = ChurnMetrics()
        record = _record()
        metrics.record_probe(record, PacketFate.LOOPED, crossed_failed_link=False)
        metrics.record_probe(record, PacketFate.DROPPED, crossed_failed_link=False)
        assert metrics.transient_violations == 2
        assert metrics.violations.looped == 1
        assert metrics.violations.dropped == 1
        assert record.violations == 2

    def test_failed_link_crossing_is_not_a_violation(self):
        metrics = ChurnMetrics()
        record = _record()
        metrics.record_probe(record, PacketFate.DROPPED, crossed_failed_link=True)
        assert metrics.failed_link_crossings == 1
        assert metrics.violations.injected == 0
        assert metrics.transient_violations == 0
        assert record.probes == 1 and record.violations == 0


class TestSettlement:
    def test_status_counters(self):
        metrics = ChurnMetrics()
        expected = {
            "done": "completed",
            "cancelled": "cancelled",
            "aborted": "aborted",
            "superseded": "superseded",
            "noop": "noops",
        }
        for index, (status, counter) in enumerate(sorted(expected.items())):
            record = _record(f"r{index}")
            metrics.open_lifecycle(record)
            metrics.settle(record, status, now_ms=10.0 + index)
            assert record.settled
            assert getattr(metrics, counter) == 1
        assert metrics.quiescent
        assert metrics.time_to_quiescence_ms == 14.0

    def test_unknown_status_rejected(self):
        metrics = ChurnMetrics()
        with pytest.raises(KeyError):
            metrics.settle(_record(), "exploded", now_ms=1.0)

    def test_quiescent_false_while_open(self):
        metrics = ChurnMetrics()
        metrics.open_lifecycle(_record())
        assert not metrics.quiescent

    def test_mean_time_to_quiescence(self):
        metrics = ChurnMetrics()
        for index, settle_at in enumerate((3.0, 5.0)):
            record = _record(f"r{index}")
            metrics.open_lifecycle(record)
            metrics.settle(record, "done", now_ms=settle_at)
        assert metrics.mean_time_to_quiescence_ms() == pytest.approx(3.0)


class TestDumps:
    def test_dump_tolerates_running_round(self):
        metrics = ChurnMetrics()
        record = _record()
        record.rounds.append(RoundTiming(index=0, started_ms=2.0))
        metrics.open_lifecycle(record)
        dump = metrics.to_dict()
        assert dump["quiescent"] is False
        [open_record] = dump["lifecycles"]
        [timing] = open_record["rounds"]
        assert timing["running"] is True
        assert timing["duration_ms"] is None
        json.dumps(dump)  # must be serializable mid-run

    def test_to_dict_sorted_and_serializable(self):
        metrics = ChurnMetrics()
        for request_id in ("r2", "r0", "r1"):
            record = _record(request_id)
            metrics.open_lifecycle(record)
            metrics.settle(record, "done", now_ms=2.0)
        dump = metrics.to_dict()
        assert [r["request_id"] for r in dump["lifecycles"]] == ["r0", "r1", "r2"]
        assert dump["quiescent"] is True
        json.dumps(dump)
