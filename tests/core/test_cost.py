"""Tests for the analytic update-time model."""

import pytest

from repro.core import cost as cost_mod
from repro.core.cost import (
    HARDWARE_TCAM,
    OVS_FAST,
    CostModel,
    round_time_breakdown,
    schedule_update_time,
)
from repro.core.oneshot import oneshot_schedule
from repro.core.wayup import wayup_schedule
from repro.netlab.figure1 import figure1_problem


class TestCostModel:
    def test_round_time_components(self):
        cost = CostModel(rtt_ms=2.0, install_ms=0.5, barrier_ms=0.1)
        assert cost.round_time([1, 2, 3]) == pytest.approx(2.0 + 0.5 + 0.1)

    def test_empty_round_is_rtt_only(self):
        cost = CostModel(rtt_ms=2.0, install_ms=0.5, barrier_ms=0.1)
        assert cost.round_time([]) == pytest.approx(2.1)

    def test_per_switch_override(self):
        cost = CostModel(install_ms=0.5, per_switch_install_ms={7: 30.0})
        assert cost.install_time(7) == 30.0
        assert cost.install_time(1) == 0.5

    def test_rules_scale_install(self, monkeypatch):
        monkeypatch.setattr(cost_mod, "RULES_PER_SWITCH", 3)
        cost = CostModel(install_ms=2.0)
        assert cost.install_time(1) == 6.0

    def test_more_rounds_cost_more(self):
        problem = figure1_problem()
        cost = OVS_FAST
        wayup = schedule_update_time(wayup_schedule(problem), cost)
        oneshot = schedule_update_time(oneshot_schedule(problem), cost)
        assert wayup > oneshot

    def test_hardware_dominated_by_install(self):
        problem = figure1_problem()
        schedule = wayup_schedule(problem)
        fast = schedule_update_time(schedule, OVS_FAST)
        slow = schedule_update_time(schedule, HARDWARE_TCAM)
        assert slow > 5 * fast

    def test_breakdown_rows(self):
        schedule = wayup_schedule(figure1_problem())
        rows = round_time_breakdown(schedule, OVS_FAST)
        assert len(rows) == schedule.n_rounds
        total = sum(row["total_ms"] for row in rows)
        assert total == pytest.approx(schedule_update_time(schedule, OVS_FAST))
