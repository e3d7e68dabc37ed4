"""Tests for trace analysis: phase summaries and cell lifecycles."""

import json

from repro.obs.analysis import load_trace, summarize_trace
from tests.campaign.fabric_helpers import (
    reconstruct_cell_lifecycles,
    verify_lifecycles,
)


def _span(name, trace="t0", dur_ms=1.0, status="ok", **attrs):
    return {
        "kind": "span", "name": name, "trace": trace, "span": "s",
        "parent": None, "pid": 1, "ts": 0.0, "dur_ms": dur_ms,
        "status": status, "attrs": attrs,
    }


def _event(name, trace="t0", **attrs):
    return {
        "kind": "event", "name": name, "trace": trace, "span": "s",
        "parent": None, "pid": 1, "ts": 0.0, "status": "ok",
        "attrs": attrs,
    }


def _cell_records(cell_id, trace):
    """A complete happy-path lifecycle for one cell on one trace."""
    run_span = _span("campaign.cell", trace=trace)
    run_span["attrs"] = {"cell_id": cell_id, "status": "ok"}
    return [
        _event("fabric.lease_cell", trace=trace, cell_id=cell_id),
        _span("fabric.cell", trace=trace, cell_id=cell_id),
        run_span,
        _span("api.execute_request", trace=trace),
        _span("fabric.rpc.submit", trace=trace, cell_id=cell_id),
        _span("fabric.submit", trace=trace, cell_id=cell_id,
              outcome="accepted"),
    ]


class TestSummarize:
    def test_rows_aggregate_by_name(self):
        records = [
            _span("search", dur_ms=2.0),
            _span("search", dur_ms=4.0),
            _span("verify", dur_ms=1.0, status="error"),
            _event("milestone"),
        ]
        rows = summarize_trace(records)
        assert [r["name"] for r in rows] == ["search", "verify", "milestone"]
        search = rows[0]
        assert search["count"] == 2
        assert search["total_ms"] == 6.0
        assert search["mean_ms"] == 3.0
        assert search["p50_ms"] == 3.0
        assert search["max_ms"] == 4.0
        assert rows[1]["errors"] == 1
        assert rows[2] == {
            "name": "milestone", "count": 1, "errors": 0, "total_ms": 0.0,
            "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0,
        }

    def test_events_fold_into_same_named_spans(self):
        rows = summarize_trace([_span("x", dur_ms=1.0), _event("x")])
        [row] = rows
        assert row["count"] == 1  # the span; the event is not double-listed

    def test_nameless_records_skipped(self):
        assert summarize_trace([{"kind": "span", "dur_ms": 1.0}]) == []


class TestLoadTrace:
    def test_directory_merges_all_jsonl_files(self, tmp_path):
        (tmp_path / "trace-1.jsonl").write_text(
            json.dumps(_span("a")) + "\n", encoding="utf-8"
        )
        (tmp_path / "trace-2.jsonl").write_text(
            json.dumps(_span("b")) + "\n" + '{"torn', encoding="utf-8"
        )
        names = sorted(r["name"] for r in load_trace(tmp_path))
        assert names == ["a", "b"]

    def test_single_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_span("only")) + "\n", encoding="utf-8")
        assert [r["name"] for r in load_trace(path)] == ["only"]


class TestLifecycles:
    def test_happy_path_is_complete_and_verifies(self):
        records = _cell_records("c0", "t0") + _cell_records("c1", "t1")
        cells = reconstruct_cell_lifecycles(records)
        assert sorted(cells) == ["c0", "c1"]
        state = cells["c0"]
        assert state.leases == 1
        assert state.accepted_submits == 1
        assert state.run_statuses == ["ok"]
        assert state.complete
        assert verify_lifecycles(records, ["c0", "c1"]) == []

    def test_reclaim_retry_and_duplicate_submits_tallied(self):
        records = (
            _cell_records("c0", "t0")
            + [
                _event("fabric.reclaim_cell", cell_id="c0", reason="dead"),
                _event("fabric.retry_cell", cell_id="c0", attempts=1),
                _span("fabric.submit", trace="t9", cell_id="c0",
                      outcome="duplicate", stale=True),
            ]
        )
        state = reconstruct_cell_lifecycles(records)["c0"]
        assert state.reclaims == 1
        assert state.retries == 1
        assert state.duplicate_submits == 1
        assert state.stale_submits == 1
        assert state.accepted_submits == 1  # the duplicate was a no-op
        assert verify_lifecycles(records, ["c0"]) == []

    def test_missing_cell_reported(self):
        problems = verify_lifecycles([], ["ghost"])
        assert problems == ["ghost: no trace records at all"]

    def test_never_leased_and_never_settled(self):
        records = [_span("fabric.cell", cell_id="c0")]
        problems = verify_lifecycles(records, ["c0"])
        assert any("never leased" in p for p in problems)
        assert any("never settled" in p for p in problems)

    def test_double_accept_is_a_problem(self):
        records = _cell_records("c0", "t0") + [
            _span("fabric.submit", trace="t1", cell_id="c0",
                  outcome="accepted"),
        ]
        problems = verify_lifecycles(records, ["c0"])
        assert any("2 accepted submits" in p for p in problems)

    def test_ok_run_without_phase_spans_is_a_problem(self):
        records = [r for r in _cell_records("c0", "t0")
                   if r["name"] != "api.execute_request"]
        problems = verify_lifecycles(records, ["c0"])
        assert any("without schedule phase spans" in p for p in problems)

    def test_orphaned_accept_trace_is_a_problem(self):
        # the accept span sits on a trace with no worker-side spans at
        # all -- stitching across the HTTP boundary failed
        records = [
            _event("fabric.lease_cell", cell_id="c0"),
            _span("campaign.cell", trace="t-worker", cell_id="c0",
                  status="ok") | {"attrs": {"cell_id": "c0", "status": "ok"}},
            _span("api.execute_request", trace="t-worker"),
            _span("fabric.submit", trace="t-lonely", cell_id="c0",
                  outcome="accepted"),
        ]
        problems = verify_lifecycles(records, ["c0"])
        assert any("orphaned" in p for p in problems)

    def test_terminal_error_counts_as_settled(self):
        records = [
            _event("fabric.lease_cell", cell_id="c0"),
            _event("fabric.fail_cell", cell_id="c0", detail="boom"),
            _event("fabric.terminal_error", cell_id="c0", attempts=3),
        ]
        state = reconstruct_cell_lifecycles(records)["c0"]
        assert state.transient_failures == 1
        assert state.terminal_errors == 1
        assert state.complete
        assert verify_lifecycles(records, ["c0"]) == []
