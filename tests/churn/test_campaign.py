"""Tests for the churn campaign families and the runner's churn branch."""

import pytest

from repro.campaign import CampaignSpec, run_cell
from repro.campaign.families import (
    build_unit,
    known_families,
    single_problem,
    validate_family,
)
from repro.errors import CampaignSpecError

CHURN_SPEC = {
    "name": "churn-sweep",
    "seed": 7,
    "families": [
        {
            "family": "churn-fat-tree",
            "sizes": [4],
            "params": {"rate_per_s": 40, "duration_ms": 150},
        },
    ],
    "schedulers": ["greedy-slf", "oneshot"],
    "verify": True,
}


def _payload(spec_dict, cell_id):
    for cell in CampaignSpec.from_dict(spec_dict).expand():
        if cell.cell_id == cell_id:
            return cell.payload()
    raise KeyError(cell_id)


class TestFamilies:
    def test_churn_families_registered(self):
        assert {"churn-fat-tree", "churn-wan"} <= known_families()

    def test_unit_carries_a_trace_not_problems(self):
        unit = build_unit("churn-fat-tree", 4, {"duration_ms": 100}, 7)
        assert unit.trace is not None
        assert unit.problems == ()
        assert unit.trace.kind == "fat-tree" and unit.trace.size == 4

    def test_build_is_deterministic(self):
        first = build_unit("churn-wan", 12, {"duration_ms": 100}, 5)
        second = build_unit("churn-wan", 12, {"duration_ms": 100}, 5)
        assert first.trace.events == second.trace.events

    def test_odd_fat_tree_arity_rejected(self):
        with pytest.raises(CampaignSpecError):
            validate_family("churn-fat-tree", [5], {}, {})

    def test_unknown_param_rejected(self):
        with pytest.raises(CampaignSpecError):
            validate_family("churn-wan", [12], {"burst": 2}, {})

    def test_trace_param_accepted(self):
        validate_family("churn-wan", [12], {"rate_per_s": 10}, {})

    def test_single_problem_refuses_trace_units(self):
        with pytest.raises(CampaignSpecError):
            single_problem("churn-fat-tree", 4, {}, 7)


class TestRunCell:
    def test_scheduled_cell_verified_clean(self):
        record, timing = run_cell(
            _payload(CHURN_SPEC, "churn-fat-tree-duration_ms150-rate_per_s40-n4-r0@greedy-slf")
        )
        assert record["status"] == "ok"
        assert record["verified"] is True
        assert record["rounds"] > 0 and record["touches"] > 0
        assert "violations=0" in record["detail"]
        assert timing["wall_ms"] >= 0

    def test_oneshot_cell_not_verified(self):
        record, _ = run_cell(_payload(CHURN_SPEC, "churn-fat-tree-duration_ms150-rate_per_s40-n4-r0@oneshot"))
        assert record["status"] == "ok"
        assert record["verified"] is None  # oneshot guarantees nothing
        assert "violations=" in record["detail"]
        assert "violations=0" not in record["detail"]

    def test_cells_are_deterministic(self):
        payload = _payload(CHURN_SPEC, "churn-fat-tree-duration_ms150-rate_per_s40-n4-r0@greedy-slf")
        first, _ = run_cell(payload)
        second, _ = run_cell(payload)
        assert first == second

    def test_timed_cell_stops_in_the_round_planner(self, monkeypatch):
        # a churn cell goes through neither pack_rounds nor verify_schedule:
        # the controller's own planner is what looks at the deadline
        from repro.churn import controller
        from repro.core.deadline import check_deadline

        payload = _payload(CHURN_SPEC, "churn-fat-tree-duration_ms150-rate_per_s40-n4-r0@greedy-slf")
        untimed, _ = run_cell(payload)
        polls = []
        monkeypatch.setattr(
            controller, "check_deadline",
            lambda: polls.append(1) or check_deadline(),
        )
        record, _ = run_cell({**payload, "timeout_s": 0.001})
        assert record["status"] == "timeout"
        assert record["detail"] == "exceeded 0.001s"
        assert polls
        # the cached trace unit serves the next cell as if nothing happened
        again, _ = run_cell(payload)
        assert again == untimed
