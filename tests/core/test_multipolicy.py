"""Tests for multi-policy (shared-rule and isolated) updates."""

import itertools

import pytest

from repro.core.multipolicy import (
    JointUpdateProblem,
    PolicyView,
    greedy_joint_schedule,
    merge_isolated_schedules,
    verify_joint_round,
    verify_joint_schedule,
)
from repro.core.oracle import SafetyOracle
from repro.core.peacock import peacock_schedule
from repro.core.problem import RuleState, UpdateKind, UpdateProblem
from repro.core.transient import UnionGraph
from repro.core.verify import Property, _check_union
from repro.errors import InfeasibleUpdateError, UpdateModelError
from tests.core.reference_exact import reference_joint_schedule


@pytest.fixture
def two_policies():
    """Two sources routing to destination 6, sharing node 3's rule."""
    p1 = UpdateProblem([1, 3, 4, 6], [1, 3, 5, 6], name="p1")
    p2 = UpdateProblem([2, 3, 4, 6], [2, 3, 5, 6], name="p2")
    return [p1, p2]


class TestJointProblem:
    def test_shared_destination_required(self):
        p1 = UpdateProblem([1, 2, 3], [1, 4, 3])
        p2 = UpdateProblem([5, 6, 7], [5, 8, 7])
        with pytest.raises(UpdateModelError, match="destination"):
            JointUpdateProblem([p1, p2])

    def test_conflicting_rules_rejected(self):
        p1 = UpdateProblem([1, 3, 6], [1, 3, 6])
        p2 = UpdateProblem([2, 3, 4, 6], [2, 3, 4, 6])
        # p1 says 3->6, p2 says 3->4: destination-based rules conflict
        with pytest.raises(UpdateModelError, match="conflict"):
            JointUpdateProblem([p1, p2])

    def test_empty_rejected(self):
        with pytest.raises(UpdateModelError):
            JointUpdateProblem([])

    def test_shared_kind(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        assert joint.kind(3) is UpdateKind.SWITCH
        assert joint.kind(5) is UpdateKind.INSTALL
        assert joint.kind(4) is UpdateKind.DELETE
        assert joint.kind(1) is UpdateKind.NOOP  # next hop unchanged

    def test_next_hop_shared(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        assert joint.next_hop(3, RuleState.OLD) == 4
        assert joint.next_hop(3, RuleState.NEW) == 5

    def test_required_updates(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        assert joint.required_updates == {3, 5}
        assert joint.cleanup_updates == {4}

    def test_policy_view_surfaces(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        view = PolicyView(joint, two_policies[0])
        assert view.source == 1
        assert view.destination == 6
        assert view.next_hop(3, RuleState.NEW) == 5


class TestJointScheduling:
    def test_greedy_produces_safe_schedule(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        schedule = greedy_joint_schedule(
            joint, properties=(Property.RLF, Property.BLACKHOLE)
        )
        report = verify_joint_schedule(
            joint, schedule, properties=(Property.RLF, Property.BLACKHOLE)
        )
        assert report.ok

    def test_round_checked_for_all_policies(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        # flipping 3 before installing 5 blackholes BOTH policies
        violations = verify_joint_round(
            joint, set(), {3}, (Property.BLACKHOLE,)
        )
        assert len(violations) == 2

    def test_waypoints_checked_per_policy(self):
        p1 = UpdateProblem([1, 3, 4, 6], [1, 3, 5, 6], waypoint=3, name="wp1")
        p2 = UpdateProblem([2, 3, 4, 6], [2, 3, 5, 6], name="plain")
        joint = JointUpdateProblem([p1, p2])
        schedule = greedy_joint_schedule(
            joint, properties=(Property.WPE, Property.BLACKHOLE)
        )
        report = verify_joint_schedule(
            joint, schedule, properties=(Property.WPE, Property.BLACKHOLE)
        )
        assert report.ok

    def test_deadlock_raises(self):
        # Two policies pulling node rules in incompatible directions can
        # deadlock; engineer one by making the only safe order circular.
        # p1 needs 3 installed-late (else blackhole), p2 needs 3 early.
        # Simplest deadlock: a single policy whose every singleton round
        # violates -- the crossing under WPE+SLF.
        from repro.core.hardness import crossing_instance

        problem = crossing_instance()
        joint = JointUpdateProblem([problem])
        with pytest.raises(InfeasibleUpdateError):
            greedy_joint_schedule(
                joint, properties=(Property.WPE, Property.SLF)
            )


class TestJointOracleEquivalence:
    """The per-policy SafetyOracle path vs the from-scratch reference."""

    def test_schedules_identical_on_shared_fixture(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        for properties in (
            (Property.RLF, Property.BLACKHOLE),
            (Property.SLF, Property.BLACKHOLE),
            (Property.BLACKHOLE,),
        ):
            fast = greedy_joint_schedule(joint, properties=properties)
            slow = reference_joint_schedule(joint, properties)
            assert list(fast.rounds) == slow, properties

    def test_schedules_identical_with_mixed_waypoints(self):
        p1 = UpdateProblem([1, 3, 4, 6], [1, 3, 5, 6], waypoint=3, name="wp1")
        p2 = UpdateProblem([2, 3, 4, 6], [2, 3, 5, 6], name="plain")
        joint = JointUpdateProblem([p1, p2])
        properties = (Property.WPE, Property.RLF, Property.BLACKHOLE)
        fast = greedy_joint_schedule(joint, properties=properties)
        assert list(fast.rounds) == reference_joint_schedule(joint, properties)
        assert verify_joint_schedule(joint, fast, properties).ok

    def test_deadlock_raised_on_both_paths(self):
        from repro.core.hardness import crossing_instance

        joint = JointUpdateProblem([crossing_instance()])
        properties = (Property.WPE, Property.SLF)
        for packer in (greedy_joint_schedule, reference_joint_schedule):
            with pytest.raises(InfeasibleUpdateError):
                packer(joint, properties)

    @pytest.mark.parametrize("prop", (Property.RLF, Property.SLF))
    def test_view_oracles_order_the_other_policies_old_rules(self, prop):
        """A view's old table holds the other policies' old rules, which
        may run against the order its own old path gives (b->a here, with
        a before b on p1's path): a fresh view oracle must judge every
        round as a union graph built from scratch for that view does."""
        p1 = UpdateProblem(["s", "a", "d"], ["s", "d"], name="p1")
        p2 = UpdateProblem(["t", "b", "a", "d"], ["t", "a", "b", "d"], name="p2")
        joint = JointUpdateProblem([p1, p2])
        nodes = sorted(joint.forwarding_nodes)
        for policy in joint.policies:
            view = PolicyView(joint, policy)
            for phases in itertools.product(range(3), repeat=len(nodes)):
                updated = {n for n, phase in zip(nodes, phases) if phase == 1}
                round_nodes = {n for n, phase in zip(nodes, phases) if phase == 2}
                union = UnionGraph.from_update_sets(view, updated, round_nodes)
                violations, _ = _check_union(union, 0, (prop,), True)
                oracle = SafetyOracle(view, (prop,))  # no morph history
                assert oracle.round_is_safe(updated, round_nodes) == (
                    not violations
                ), (policy.name, updated, round_nodes)

    def test_policy_view_duck_surface(self, two_policies):
        joint = JointUpdateProblem(two_policies)
        view = PolicyView(joint, two_policies[0])
        assert view.nodes == joint.nodes
        assert view.old_next[3] == 4 and view.new_next[3] == 5
        # nodes outside a policy's own paths still resolve via the joint
        assert view.old_next[2] == 3
        assert view.name.endswith(two_policies[0].name)


class TestIsolatedMerge:
    def test_merge_rounds(self):
        p1 = UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4], name="a")
        p2 = UpdateProblem([1, 2, 3, 4], [1, 3, 4], name="b")
        s1 = peacock_schedule(p1, include_cleanup=False)
        s2 = peacock_schedule(p2, include_cleanup=False)
        plan = merge_isolated_schedules([s1, s2])
        assert plan.n_rounds == max(s1.n_rounds, s2.n_rounds)
        combined = plan.combined_rounds()
        assert len(combined) == plan.n_rounds
        assert plan.total_updates() == s1.total_updates() + s2.total_updates()

    def test_merge_requires_input(self):
        with pytest.raises(UpdateModelError):
            merge_isolated_schedules([])
