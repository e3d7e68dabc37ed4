"""Unit tests for the transient-property verifiers."""

import pytest

from repro.core import verify
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.transient import UnionGraph
from repro.core.verify import (
    Property,
    check_blackhole,
    check_rlf,
    check_slf,
    check_wpe,
    default_properties,
    verify_exhaustive,
    verify_schedule,
)
from repro.errors import VerificationBudgetError, VerificationError


@pytest.fixture
def crossing():
    """old 1-2-3-4-5, new 1-4-3-2-5, w=3: the canonical crossing."""
    return UpdateProblem([1, 2, 3, 4, 5], [1, 4, 3, 2, 5], waypoint=3)


class TestWPE:
    def test_oneshot_violates(self, crossing):
        schedule = UpdateSchedule(crossing, [[1, 2, 3, 4]])
        union = UnionGraph.for_round(schedule, 0)
        violation = check_wpe(union, 0)
        assert violation is not None
        assert 3 not in violation.witness
        assert violation.witness[0] == 1 and violation.witness[-1] == 5

    def test_safe_round_passes(self, crossing):
        schedule = UpdateSchedule(crossing, [[3, 4], [1], [2]])
        for index in range(3):
            union = UnionGraph.for_round(schedule, index)
            assert check_wpe(union, index) is None

    def test_requires_waypoint(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = UpdateSchedule(problem, [[4, 1]])
        union = UnionGraph.for_round(schedule, 0)
        with pytest.raises(VerificationError):
            check_wpe(union, 0)

    def test_witness_is_a_real_path(self, crossing):
        schedule = UpdateSchedule(crossing, [[2], [1, 3, 4]])
        union = UnionGraph.for_round(schedule, 0)
        violation = check_wpe(union, 0)
        # updating 2 first: 1(old)->2(new)->5 bypasses 3
        assert violation is not None
        assert violation.witness == (1, 2, 5)


class TestSLF:
    def test_two_cycle_found(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        schedule = UpdateSchedule(problem, [[1, 2, 3]])
        union = UnionGraph.for_round(schedule, 0)
        violation = check_slf(union, 0)
        assert violation is not None
        assert violation.witness[0] == violation.witness[-1]

    def test_forward_round_is_safe(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 4])  # skip 2: forward
        schedule = UpdateSchedule(problem, [[1], [2]])
        union = UnionGraph.for_round(schedule, 0)
        assert check_slf(union, 0) is None

    def test_unreachable_cycle_still_counts(self):
        # 1 flips first and permanently bypasses 2<->3; their cycle is
        # unreachable but strong loop freedom forbids it anyway.
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        schedule = UpdateSchedule(problem, [[1], [2, 3]])
        union = UnionGraph.for_round(schedule, 1)
        assert check_slf(union, 1) is not None


class TestRLF:
    def test_reachable_loop_detected(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        schedule = UpdateSchedule(problem, [[1, 2, 3]])
        union = UnionGraph.for_round(schedule, 0)
        violation, conservative = check_rlf(union, 0, exact=True)
        assert violation is not None and not conservative
        # witness ends with a revisited node
        assert violation.witness[-1] in violation.witness[:-1]

    def test_unreachable_loop_tolerated(self):
        # After flipping 2 alone (round 0), the trajectory is pinned to
        # 1->2->5; flipping 3 next (round 1) cannot affect it: the 3->2
        # edge is unreachable from the source, so RLF accepts.
        problem = UpdateProblem([1, 2, 3, 4, 5], [1, 4, 3, 2, 5])
        schedule = UpdateSchedule(problem, [[2], [3], [4], [1]])
        union = UnionGraph.for_round(schedule, 1)
        violation, _ = check_rlf(union, 1, exact=True)
        assert violation is None

    def test_rlf_accepts_where_slf_rejects(self):
        # Reversal on six nodes: once the source jumps to 5, the whole
        # backward interior {2,3,4} can flip in one round.  Transient
        # 2<->3 loops exist (SLF violation) but no packet entering at 1
        # can reach them (RLF fine) -- the PODC'15 relaxation, exactly.
        problem = UpdateProblem([1, 2, 3, 4, 5, 6], [1, 5, 4, 3, 2, 6])
        schedule = UpdateSchedule(problem, [[1], [2, 3, 4], [5]])
        union = UnionGraph.for_round(schedule, 1)
        assert check_slf(union, 1) is not None
        violation, _ = check_rlf(union, 1, exact=True)
        assert violation is None

    def test_conservative_mode_flags_potential(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        schedule = UpdateSchedule(problem, [[1, 2, 3]])
        union = UnionGraph.for_round(schedule, 0)
        violation, conservative = check_rlf(union, 0, exact=False)
        assert violation is not None and conservative

    def test_conservative_mode_accepts_clean_rounds(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 4])
        schedule = UpdateSchedule(problem, [[1], [2]])
        union = UnionGraph.for_round(schedule, 0)
        violation, conservative = check_rlf(union, 0, exact=False)
        assert violation is None and not conservative

    def test_budget_raises(self, monkeypatch):
        # long chain of flexible nodes forces branching
        n = 40
        old = list(range(1, n + 1))
        new = [1, *range(n - 1, 1, -1), n]
        problem = UpdateProblem(old, new)
        schedule = UpdateSchedule(problem, [sorted(problem.required_updates)])
        union = UnionGraph.for_round(schedule, 0)
        monkeypatch.setattr(verify, "RLF_BUDGET", 5)
        with pytest.raises(VerificationBudgetError):
            check_rlf(union, 0, exact=True)


class TestBlackhole:
    def test_reachable_install_gap(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = UpdateSchedule(problem, [[1, 4]])
        union = UnionGraph.for_round(schedule, 0)
        violation = check_blackhole(union, 0)
        assert violation is not None
        assert violation.witness[-1] == 4

    def test_install_first_is_safe(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        schedule = UpdateSchedule(problem, [[4], [1]])
        for index in range(2):
            union = UnionGraph.for_round(schedule, index)
            assert check_blackhole(union, index) is None


class TestScheduleLevel:
    def test_default_properties(self, crossing):
        assert Property.WPE in default_properties(crossing)
        plain = UpdateProblem([1, 2, 3], [1, 4, 3])
        assert Property.WPE not in default_properties(plain)
        assert Property.BLACKHOLE in default_properties(plain)

    def test_verify_schedule_reports_round_index(self, crossing):
        schedule = UpdateSchedule(crossing, [[2], [1, 3, 4]])
        report = verify_schedule(schedule, properties=(Property.WPE,))
        assert not report.ok
        assert report.violations[0].round_index == 0

    def test_by_property_filter(self, crossing):
        schedule = UpdateSchedule(crossing, [[1, 2, 3, 4]])
        report = verify_schedule(
            schedule, properties=(Property.WPE, Property.SLF)
        )
        assert report.by_property(Property.WPE)
        assert report.by_property(Property.SLF)


class TestExhaustiveOracle:
    def test_agrees_on_safe_schedule(self, crossing):
        schedule = UpdateSchedule(crossing, [[3, 4], [1], [2]])
        poly = verify_schedule(schedule, properties=(Property.WPE,))
        brute = verify_exhaustive(schedule, properties=(Property.WPE,))
        assert poly.ok and brute.ok

    def test_agrees_on_unsafe_schedule(self, crossing):
        schedule = UpdateSchedule(crossing, [[1, 2, 3, 4]])
        properties = (Property.WPE, Property.SLF, Property.RLF, Property.BLACKHOLE)
        poly = verify_schedule(schedule, properties=properties)
        brute = verify_exhaustive(schedule, properties=properties)
        assert not poly.ok and not brute.ok
        for prop in (Property.WPE,):
            assert bool(poly.by_property(prop)) == bool(brute.by_property(prop))

    def test_method_label(self, crossing):
        schedule = UpdateSchedule(crossing, [[3, 4], [1], [2]])
        assert verify_exhaustive(schedule).method == "exhaustive"
