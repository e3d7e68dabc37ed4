"""Multi-policy updates (after Dudycz, Ludwig, Schmid, DSN'16).

Two regimes exist when several policies change at once:

* **Isolated flows** -- each policy matches its own flow (5-tuple rules),
  so rule changes never interact; per-policy schedules can simply be
  *merged* round-by-round (:func:`merge_isolated_schedules`), and the joint
  update finishes in ``max_i rounds_i`` rounds.
* **Shared rules** -- destination-based forwarding means one rule per node
  serves *every* policy towards that destination.  Updating a node flips it
  for all policies simultaneously, and a round that is safe for one policy
  may be fatal for another ("can't touch this").
  :class:`JointUpdateProblem` models the shared state space and
  :func:`greedy_joint_schedule` packs rounds that every policy accepts,
  raising :class:`InfeasibleUpdateError` when the policies deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.errors import InfeasibleUpdateError, UpdateModelError
from repro.core.deadline import check_deadline
from repro.core.oracle import SafetyOracle
from repro.core.problem import RuleState, UpdateKind, UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.transient import UnionGraph
from repro.core.verify import (
    Property,
    VerificationReport,
    Violation,
    _check_union,
)
from repro.topology.graph import NodeId


class JointUpdateProblem:
    """Several policies towards one destination sharing per-node rules.

    Duck-types the parts of :class:`~repro.core.problem.UpdateProblem` that
    :class:`~repro.core.schedule.UpdateSchedule` and the union-graph
    machinery need (``nodes``, ``forwarding_nodes``, ``kind``, ``next_hop``,
    ``required_updates``, ``cleanup_updates``).
    """

    def __init__(self, policies: Sequence[UpdateProblem], name: str = "joint") -> None:
        if not policies:
            raise UpdateModelError("a joint problem needs at least one policy")
        self.policies = tuple(policies)
        self.name = name
        destination = self.policies[0].destination
        for policy in self.policies:
            if policy.destination != destination:
                raise UpdateModelError(
                    "shared-rule policies must share the destination: "
                    f"{policy.destination!r} != {destination!r}"
                )
        self.destination = destination
        self._old_next: dict[NodeId, NodeId] = {}
        self._new_next: dict[NodeId, NodeId] = {}
        for policy in self.policies:
            self._merge(self._old_next, policy.old_path.nodes, policy.name, "old")
            self._merge(self._new_next, policy.new_path.nodes, policy.name, "new")

    def _merge(self, table: dict, nodes: tuple, policy_name: str, label: str) -> None:
        for u, v in zip(nodes, nodes[1:]):
            existing = table.get(u)
            if existing is not None and existing != v:
                raise UpdateModelError(
                    f"{label} rules conflict at {u!r}: policy {policy_name!r} "
                    f"needs {v!r} but another policy set {existing!r}"
                )
            table[u] = v

    # ------------------------------------------------------------------
    # UpdateProblem-compatible surface
    # ------------------------------------------------------------------
    @cached_property
    def nodes(self) -> frozenset:
        everything: set = {self.destination}
        everything.update(self._old_next)
        everything.update(self._new_next)
        return frozenset(everything)

    @cached_property
    def forwarding_nodes(self) -> frozenset:
        return self.nodes - {self.destination}

    def next_hop(self, node: NodeId, state: RuleState) -> NodeId | None:
        if node == self.destination:
            raise UpdateModelError("the destination does not forward")
        if state is RuleState.OLD:
            return self._old_next.get(node)
        return self._new_next.get(node)

    def kind(self, node: NodeId) -> UpdateKind:
        if node == self.destination:
            return UpdateKind.NOOP
        old = self._old_next.get(node)
        new = self._new_next.get(node)
        if old is None and new is None:
            raise UpdateModelError(f"{node!r} is not part of {self.name!r}")
        if old is not None and new is not None:
            return UpdateKind.NOOP if old == new else UpdateKind.SWITCH
        if new is not None:
            return UpdateKind.INSTALL
        return UpdateKind.DELETE

    @cached_property
    def required_updates(self) -> frozenset:
        return frozenset(
            node
            for node in self.forwarding_nodes
            if self.kind(node) in (UpdateKind.INSTALL, UpdateKind.SWITCH)
        )

    @cached_property
    def cleanup_updates(self) -> frozenset:
        return frozenset(
            node
            for node in self.forwarding_nodes
            if self.kind(node) is UpdateKind.DELETE
        )


@dataclass(frozen=True)
class PolicyView:
    """One policy's perspective on the shared state.

    Duck-types enough of :class:`~repro.core.problem.UpdateProblem` for
    both the from-scratch verifiers (:class:`UnionGraph`) and the
    incremental :class:`~repro.core.oracle.SafetyOracle`: the node set
    and next-hop tables come from the *joint* rule state, while source,
    waypoint and the initial path ordering come from the policy whose
    property verdicts are being asked.
    """

    joint: JointUpdateProblem
    policy: UpdateProblem

    @property
    def name(self):
        return f"{self.joint.name}:{self.policy.name}"

    @property
    def source(self):
        return self.policy.source

    @property
    def destination(self):
        return self.joint.destination

    @property
    def waypoint(self):
        return self.policy.waypoint

    @property
    def nodes(self):
        return self.joint.nodes

    @property
    def forwarding_nodes(self):
        return self.joint.forwarding_nodes

    @property
    def old_path(self):
        return self.policy.old_path

    @property
    def new_path(self):
        return self.policy.new_path

    @cached_property
    def old_next(self) -> dict:
        table = self.joint._old_next
        return {node: table.get(node) for node in self.joint.forwarding_nodes}

    @cached_property
    def new_next(self) -> dict:
        table = self.joint._new_next
        return {node: table.get(node) for node in self.joint.forwarding_nodes}

    def next_hop(self, node, state):
        return self.joint.next_hop(node, state)


def verify_joint_round(
    joint: JointUpdateProblem,
    updated: set,
    round_nodes: set,
    properties: tuple[Property, ...],
    round_index: int = 0,
) -> list[Violation]:
    """Check one shared-rule round against every policy's properties
    (WPE only for a policy with a waypoint), each on a union graph built
    from scratch."""
    violations: list[Violation] = []
    for policy in joint.policies:
        union = UnionGraph.from_update_sets(
            PolicyView(joint, policy), updated, round_nodes
        )
        checked = tuple(
            prop for prop in properties
            if prop is not Property.WPE or policy.waypoint is not None
        )
        found, _ = _check_union(union, round_index, checked, True)
        violations.extend(found)
    return violations


def verify_joint_schedule(
    joint: JointUpdateProblem,
    schedule: UpdateSchedule,
    properties: tuple[Property, ...],
) -> VerificationReport:
    """Verify a shared-rule schedule for every policy at once."""
    report = VerificationReport(ok=True, properties=tuple(properties))
    updated: set = set()
    for index, round_nodes in enumerate(schedule.rounds):
        found = verify_joint_round(
            joint, updated, set(round_nodes), properties, round_index=index
        )
        report.rounds_checked += 1
        if found:
            report.ok = False
            report.violations.extend(found)
        updated |= round_nodes
    return report


def greedy_joint_schedule(
    joint: JointUpdateProblem,
    properties: tuple[Property, ...] = (Property.RLF, Property.BLACKHOLE),
    include_cleanup: bool = True,
) -> UpdateSchedule:
    """Greedy maximal safe rounds over the shared rule set.

    Unlike the single-policy schedulers there is no progress guarantee:
    policies can deadlock each other (DSN'16), in which case
    :class:`InfeasibleUpdateError` is raised.

    Every round-safety probe runs against one persistent
    :class:`~repro.core.oracle.SafetyOracle` per policy view, so the
    candidate walk is a sequence of one-node deltas on maintained union
    graphs instead of per-probe rebuilds (the tests cross-check it
    against a packer probing through the from-scratch
    :func:`verify_joint_round`).
    """
    properties = tuple(properties)
    oracles = []
    for policy in joint.policies:
        view_props = tuple(
            prop
            for prop in properties
            if prop is not Property.WPE or policy.waypoint is not None
        )
        if view_props:
            oracles.append(SafetyOracle(PolicyView(joint, policy), view_props))

    def round_unsafe(updated: set, candidate: set) -> bool:
        return any(
            not oracle.round_is_safe(updated, candidate) for oracle in oracles
        )

    install = {
        node
        for node in joint.required_updates
        if joint.kind(node) is UpdateKind.INSTALL
    }
    rounds: list[set] = []
    updated: set = set()
    if install:
        if round_unsafe(updated, install):
            raise InfeasibleUpdateError(
                "installing new-only rules is already unsafe for some policy"
            )
        rounds.append(install)
        updated |= install
    pending = sorted(joint.required_updates - install, key=repr)
    while pending:
        round_nodes: set = set()
        kept: list = []
        for node in pending:
            check_deadline()
            candidate = round_nodes | {node}
            if not round_unsafe(updated, candidate):
                round_nodes = candidate
            else:
                kept.append(node)
        if not round_nodes:
            raise InfeasibleUpdateError(
                f"policies deadlock: none of {kept!r} can be updated safely"
            )
        rounds.append(round_nodes)
        updated |= round_nodes
        pending = kept
    if include_cleanup and joint.cleanup_updates:
        rounds.append(set(joint.cleanup_updates))
    return UpdateSchedule(
        joint,  # type: ignore[arg-type]  # duck-typed problem surface
        rounds,
        algorithm="joint-greedy",
        metadata={"policies": [p.name for p in joint.policies]},
    )


@dataclass(frozen=True)
class MergedPlan:
    """Round-merged execution plan for *isolated* (per-flow) policies."""

    schedules: tuple[UpdateSchedule, ...]

    @property
    def n_rounds(self) -> int:
        return max((s.n_rounds for s in self.schedules), default=0)

    def combined_rounds(self) -> list[list[tuple[UpdateProblem, frozenset]]]:
        """Round ``i`` = the i-th round of every policy, executed together."""
        combined: list[list[tuple[UpdateProblem, frozenset]]] = []
        for index in range(self.n_rounds):
            entry = [
                (s.problem, s.rounds[index])
                for s in self.schedules
                if index < s.n_rounds
            ]
            combined.append(entry)
        return combined

    def total_updates(self) -> int:
        return sum(s.total_updates() for s in self.schedules)


def merge_isolated_schedules(schedules: Sequence[UpdateSchedule]) -> MergedPlan:
    """Merge per-flow schedules; safe because isolated flows never interact."""
    if not schedules:
        raise UpdateModelError("nothing to merge")
    return MergedPlan(schedules=tuple(schedules))
