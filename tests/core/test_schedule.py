"""Unit tests for round schedules."""

import pytest

from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.schedule import UpdateSchedule, sequential_schedule
from repro.errors import ScheduleError


@pytest.fixture
def problem():
    # old 1-2-3-4, new 1-5-3-2-4: installs 5; switches 1,2,3; no deletes
    return UpdateProblem([1, 2, 3, 4], [1, 5, 3, 2, 4])


class TestValidation:
    def test_accepts_full_cover(self, problem):
        schedule = UpdateSchedule(problem, [[5], [3, 2], [1]])
        assert schedule.n_rounds == 3

    def test_rejects_empty_round(self, problem):
        with pytest.raises(ScheduleError, match="empty"):
            UpdateSchedule(problem, [[5], [], [1, 2, 3]])

    def test_rejects_duplicate_node(self, problem):
        with pytest.raises(ScheduleError, match="twice"):
            UpdateSchedule(problem, [[5, 1], [1, 2, 3]])

    def test_rejects_unknown_node(self, problem):
        with pytest.raises(ScheduleError, match="not part"):
            UpdateSchedule(problem, [[5, 99], [1, 2, 3]])

    def test_rejects_missing_required(self, problem):
        with pytest.raises(ScheduleError, match="never scheduled"):
            UpdateSchedule(problem, [[5], [1, 2]])  # 3 missing

    def test_rejects_noop_node(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 2, 3, 4])
        with pytest.raises(ScheduleError):
            UpdateSchedule(problem, [[2]])

    def test_deletes_are_optional(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = UpdateSchedule(problem, [[4], [1]])
        assert not schedule.includes_cleanup()
        with_cleanup = schedule.with_cleanup()
        assert with_cleanup.includes_cleanup()
        assert with_cleanup.n_rounds == 3
        assert with_cleanup.rounds[-1] == frozenset({2})


class TestQueries:
    def test_round_of(self, problem):
        schedule = UpdateSchedule(problem, [[5], [3, 2], [1]])
        assert schedule.round_of(5) == 0
        assert schedule.round_of(2) == 1
        assert schedule.round_of(1) == 2
        assert schedule.round_of(4) is None  # destination, unscheduled

    def test_iteration_and_len(self, problem):
        schedule = UpdateSchedule(problem, [[5], [1, 2, 3]])
        assert len(schedule) == 2
        assert [len(r) for r in schedule] == [1, 3]

    def test_total_updates(self, problem):
        schedule = UpdateSchedule(problem, [[5], [1, 2, 3]])
        assert schedule.total_updates() == 4

    def test_merged_collapses_to_one_round(self, problem):
        schedule = UpdateSchedule(problem, [[5], [3, 2], [1]])
        merged = schedule.merged()
        assert merged.n_rounds == 1
        assert merged.rounds[0] == frozenset({1, 2, 3, 5})

    def test_with_cleanup_idempotent(self, problem):
        schedule = UpdateSchedule(problem, [[5], [1, 2, 3]])
        assert schedule.with_cleanup() is schedule  # nothing to delete


class TestSequential:
    def test_one_node_per_round(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 5, 3, 2, 4])
        schedule = sequential_schedule(problem)
        assert all(len(r) == 1 for r in schedule.rounds)
        assert schedule.total_updates() == len(problem.all_updates)

    def test_installs_come_first(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = sequential_schedule(problem)
        first = next(iter(schedule.rounds[0]))
        assert problem.kind(first) is UpdateKind.INSTALL

    def test_deletes_come_last(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = sequential_schedule(problem)
        last = next(iter(schedule.rounds[-1]))
        assert problem.kind(last) is UpdateKind.DELETE
