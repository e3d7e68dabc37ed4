"""The union graph and the problem's forwarding tables in their
from-scratch forms, as differential references.

Until :class:`~repro.core.transient.UnionGraph` read every node's
successors from a per-graph slot table, it built each node's behaviours
as :class:`~repro.core.transient.EdgeChoice` tuples -- two ``next_hop``
calls per flexible node -- and derived the successors and the may-drop
flag from those choices, in the constructor and again for every node a
round boundary touched.  :class:`ReferenceUnionGraph` is that
construction.  The ``reference_*`` functions are the comprehension forms
of :class:`~repro.core.problem.UpdateProblem`'s tables, which asked the
:class:`~repro.topology.paths.Path` objects once per node.

They share no code with the production forms; do not optimise them.
"""

from __future__ import annotations

from repro.core.problem import RuleState, UpdateKind
from repro.core.transient import EdgeChoice, NodePhase, phases_for_round


def reference_options(problem, node, phase: NodePhase) -> tuple[EdgeChoice, ...]:
    """The behaviours ``node`` may show while in ``phase``."""
    if phase is NodePhase.FIXED_OLD:
        return (EdgeChoice(RuleState.OLD, problem.next_hop(node, RuleState.OLD)),)
    if phase is NodePhase.FIXED_NEW:
        return (EdgeChoice(RuleState.NEW, problem.next_hop(node, RuleState.NEW)),)
    old = EdgeChoice(RuleState.OLD, problem.next_hop(node, RuleState.OLD))
    new = EdgeChoice(RuleState.NEW, problem.next_hop(node, RuleState.NEW))
    return (old,) if old.target == new.target else (old, new)


class ReferenceUnionGraph:
    """One ``EdgeChoice`` tuple per forwarding node; nothing else kept."""

    def __init__(self, problem, phases: dict) -> None:
        self.problem = problem
        self._choices: dict = {}
        flexible: set = set()
        for node in problem.forwarding_nodes:
            phase = phases.get(node, NodePhase.FIXED_OLD)
            if phase is NodePhase.FLEXIBLE:
                flexible.add(node)
            self._choices[node] = reference_options(problem, node, phase)
        self.flexible = frozenset(flexible)

    @classmethod
    def for_round(cls, schedule, round_index: int) -> "ReferenceUnionGraph":
        return cls(schedule.problem, phases_for_round(schedule, round_index))

    @classmethod
    def from_update_sets(cls, problem, updated, in_flight) -> "ReferenceUnionGraph":
        phases = {node: NodePhase.FIXED_NEW for node in updated}
        phases.update({node: NodePhase.FLEXIBLE for node in in_flight})
        return cls(problem, phases)

    def advance(self, settled, in_flight) -> None:
        for nodes, phase in (
            (settled, NodePhase.FIXED_NEW),
            (in_flight, NodePhase.FLEXIBLE),
        ):
            for node in nodes:
                if node in self._choices:
                    self._choices[node] = reference_options(self.problem, node, phase)
        self.flexible = frozenset(
            node for node in in_flight if node in self._choices
        )

    def nodes(self):
        return iter(self._choices)

    def choices(self, node) -> tuple[EdgeChoice, ...]:
        return self._choices.get(node, ())

    def successors(self, node) -> list:
        return [c.target for c in self.choices(node) if c.target is not None]

    def may_drop(self, node) -> bool:
        return len(self.successors(node)) < len(self.choices(node))


def reference_old_next(problem) -> dict:
    old = problem.old_path
    return {
        node: old.next_hop(node) if node in old else None
        for node in problem.forwarding_nodes
    }


def reference_new_next(problem) -> dict:
    new = problem.new_path
    return {
        node: new.next_hop(node) if node in new else None
        for node in problem.forwarding_nodes
    }


def reference_kind_table(problem) -> dict:
    table: dict = {problem.destination: UpdateKind.NOOP}
    old_next, new_next = reference_old_next(problem), reference_new_next(problem)
    for node in problem.forwarding_nodes:
        on_old = node in problem.old_path
        on_new = node in problem.new_path
        if on_old and on_new:
            kind = (
                UpdateKind.NOOP
                if old_next[node] == new_next[node]
                else UpdateKind.SWITCH
            )
        elif on_new:
            kind = UpdateKind.INSTALL
        else:
            kind = UpdateKind.DELETE
        table[node] = kind
    return table


def reference_required_updates(problem) -> frozenset:
    kinds = reference_kind_table(problem)
    return frozenset(
        node
        for node in problem.forwarding_nodes
        if kinds[node] in (UpdateKind.INSTALL, UpdateKind.SWITCH)
    )


def reference_cleanup_updates(problem) -> frozenset:
    kinds = reference_kind_table(problem)
    return frozenset(
        node for node in problem.forwarding_nodes
        if kinds[node] is UpdateKind.DELETE
    )
