"""Tests for the Peacock scheduler (relaxed loop freedom, few rounds)."""

import pytest

from repro.core.hardness import reversal_instance, sawtooth_instance
from repro.core.peacock import classify_forward_backward, peacock_schedule
from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.verify import Property, verify_exhaustive, verify_schedule
from repro.errors import UpdateModelError


class TestClassification:
    def test_forward_jump(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 4])
        forward, backward = classify_forward_backward(problem)
        assert 1 in forward and not backward

    def test_backward_jump(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
        forward, backward = classify_forward_backward(problem)
        assert 3 in backward
        assert 1 in forward  # 1 -> 3 jumps ahead
        assert 2 in forward  # 2 -> 4 jumps ahead

    def test_chain_through_new_only_nodes(self):
        # 1 -> 5 -> 6 -> 3: exit node 3 is ahead of 1 => forward
        problem = UpdateProblem([1, 2, 3, 4], [1, 5, 6, 3, 4])
        forward, backward = classify_forward_backward(problem)
        assert 1 in forward

    def test_chain_exiting_backward(self):
        # 3 -> 5 -> 2: exit node 2 is behind 3 => backward
        problem = UpdateProblem([1, 2, 3, 4], [1, 3, 5, 2, 4])
        forward, backward = classify_forward_backward(problem)
        assert 3 in backward

    def test_installs_not_classified(self):
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        forward, backward = classify_forward_backward(problem)
        assert 4 not in forward | backward

    def test_copies_no_part_of_the_path(self):
        # slicing ``nodes[position + 1:]`` once per switch node copied
        # n^2/2 elements: 0.50 s of a 0.96 s search on reversal(20000),
        # in one stretch that no deadline poll interrupts
        class CountingTuple(tuple):
            copied = 0

            def __getitem__(self, key):
                item = tuple.__getitem__(self, key)
                if isinstance(key, slice):
                    CountingTuple.copied += len(item)
                return item

        n = 400
        problem = reversal_instance(n)
        expected = classify_forward_backward(problem)
        problem.new_path._nodes = CountingTuple(problem.new_path.nodes)
        assert classify_forward_backward(problem) == expected
        assert CountingTuple.copied == 0  # was n(n - 1) / 2 = 79,800


class TestSchedule:
    def test_rejects_noop_problem(self):
        problem = UpdateProblem([1, 2, 3], [1, 2, 3])
        with pytest.raises(UpdateModelError):
            peacock_schedule(problem)

    def test_reversal_needs_three_switch_rounds(self):
        schedule = peacock_schedule(reversal_instance(12), include_cleanup=False)
        assert schedule.n_rounds == 3
        names = schedule.metadata["round_names"]
        assert names[0] == "forward"

    def test_reversal_round_counts_stay_constant(self):
        # The relaxation makes the reversal trivial at any size.
        for n in (6, 10, 20, 40):
            schedule = peacock_schedule(reversal_instance(n), include_cleanup=False)
            assert schedule.n_rounds == 3, n

    def test_install_round_first_when_present(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 5, 3, 2, 4])
        schedule = peacock_schedule(problem)
        assert schedule.metadata["round_names"][0] == "install"
        assert schedule.rounds[0] == frozenset({5})

    def test_cleanup_round_last(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 5, 2, 4])  # 3 goes stale
        schedule = peacock_schedule(problem, include_cleanup=True)
        assert schedule.metadata["round_names"][-1] == "cleanup"
        assert schedule.rounds[-1] == frozenset({3})

    @pytest.mark.parametrize("n,block", [(8, 2), (10, 3), (12, 5)])
    def test_sawtooth_rlf_safe(self, n, block):
        schedule = peacock_schedule(sawtooth_instance(n, block))
        report = verify_schedule(
            schedule, properties=(Property.RLF, Property.BLACKHOLE)
        )
        assert report.ok, [str(v) for v in report.violations]

    def test_exhaustive_agrees(self):
        schedule = peacock_schedule(reversal_instance(8))
        report = verify_exhaustive(
            schedule, properties=(Property.RLF, Property.BLACKHOLE)
        )
        assert report.ok

    def test_conservative_mode_still_safe(self):
        schedule = peacock_schedule(reversal_instance(10), exact=False)
        report = verify_schedule(
            schedule, properties=(Property.RLF, Property.BLACKHOLE)
        )
        assert report.ok

    def test_conservative_never_fewer_rounds_than_exact(self):
        for n in (6, 9, 12):
            exact = peacock_schedule(reversal_instance(n), include_cleanup=False)
            conservative = peacock_schedule(
                reversal_instance(n), include_cleanup=False, exact=False
            )
            assert conservative.n_rounds >= exact.n_rounds

    def test_metadata_records_mode(self):
        schedule = peacock_schedule(reversal_instance(6), exact=False)
        assert schedule.metadata["exact"] is False

    def test_only_switch_nodes_in_flip_rounds(self):
        problem = UpdateProblem([1, 2, 3, 4], [1, 5, 3, 2, 4])
        schedule = peacock_schedule(problem, include_cleanup=False)
        for round_nodes in schedule.rounds[1:]:
            for node in round_nodes:
                assert problem.kind(node) is UpdateKind.SWITCH
