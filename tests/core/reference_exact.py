"""From-scratch exact search and joint packer, as differential references.

Until the exact engines were folded into one DFS these lived in ``src/``
as ``minimal_round_schedule(engine="sets", use_oracle=False)`` and
``greedy_joint_schedule(use_oracle=False)``.  They share nothing with the
production search: states are ``frozenset``s, the walk is breadth-first,
and every verdict rebuilds the union graph through
:func:`~repro.core.optimal.round_is_safe_reference` (or
:func:`~repro.core.multipolicy.verify_joint_round`) -- no oracle, no
memo, no certificates, no bounds.  That independence is the point; do
not optimise them.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from repro.core.multipolicy import verify_joint_round
from repro.core.optimal import round_is_safe_reference
from repro.core.problem import RuleState, UpdateKind
from repro.core.schedule import UpdateSchedule
from repro.errors import InfeasibleUpdateError


def reference_minimal_schedule(
    problem, properties, max_rounds=None, round_filter=None
) -> UpdateSchedule:
    """Fewest-round schedule by breadth-first search over node sets.

    Candidate rounds are tried by ascending size, then in canonical node
    order, so the first schedule reaching the goal has the fewest rounds.
    Raises :class:`InfeasibleUpdateError` when none exists (within
    ``max_rounds``).
    """
    properties = tuple(properties)
    rounds = _bfs_rounds(problem, properties, max_rounds, round_filter)
    if rounds is None:
        raise InfeasibleUpdateError(
            f"no schedule satisfies {[p.value for p in properties]}"
            + (f" within {max_rounds} rounds" if max_rounds is not None else "")
        )
    return UpdateSchedule(problem, rounds, algorithm="reference-optimal")


def _bfs_rounds(problem, properties, max_rounds, round_filter):
    todo = frozenset(problem.required_updates)
    start: frozenset = frozenset()
    if not todo:
        return []
    parents: dict = {start: None}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        if max_rounds is not None and depth > max_rounds:
            return None
        next_frontier: list[frozenset] = []
        for state in frontier:
            pending = [n for n in problem.canonical_updates if n not in state]
            for size in range(1, len(pending) + 1):
                for combo in itertools.combinations(pending, size):
                    round_nodes = frozenset(combo)
                    successor = state | round_nodes
                    if successor in parents:
                        continue
                    if round_filter is not None and not round_filter(
                        set(state), set(round_nodes)
                    ):
                        continue
                    if not round_is_safe_reference(
                        problem, set(state), set(round_nodes), properties
                    ):
                        continue
                    parents[successor] = (state, round_nodes)
                    if successor == todo:
                        return _unwind(parents, successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return None


def _unwind(parents: dict, state: frozenset) -> list[frozenset]:
    rounds: list[frozenset] = []
    while parents[state] is not None:
        state, round_nodes = parents[state]
        rounds.append(round_nodes)
    rounds.reverse()
    return rounds


def reference_round_count(problem, properties, **options) -> int | None:
    """Optimal round count per the reference, ``None`` when infeasible."""
    try:
        return reference_minimal_schedule(problem, properties, **options).n_rounds
    except InfeasibleUpdateError:
        return None


def replay_is_safe(problem, schedule, properties) -> bool:
    """Is every round safe from the state its predecessors leave, and do
    the rounds flip exactly the required updates?"""
    updated: set = set()
    for round_nodes in schedule.rounds:
        if not round_is_safe_reference(
            problem, updated, set(round_nodes), tuple(properties)
        ):
            return False
        updated |= round_nodes
    return updated == set(problem.required_updates)


def reference_joint_schedule(joint, properties, include_cleanup=True) -> list[set]:
    """Rounds of the greedy joint packer with every probe from scratch.

    Same candidate walk as
    :func:`~repro.core.multipolicy.greedy_joint_schedule` (installs first,
    then maximal rounds over the pending nodes in ``repr`` order), with
    :func:`verify_joint_round` deciding each probe.
    """
    properties = tuple(properties)

    def unsafe(updated: set, candidate: set) -> bool:
        return bool(verify_joint_round(joint, updated, candidate, properties))

    install = {
        node
        for node in joint.required_updates
        if joint.kind(node) is UpdateKind.INSTALL
    }
    rounds: list[set] = []
    updated: set = set()
    if install:
        if unsafe(updated, install):
            raise InfeasibleUpdateError("installing new-only rules is unsafe")
        rounds.append(install)
        updated |= install
    pending = sorted(joint.required_updates - install, key=repr)
    while pending:
        round_nodes: set = set()
        kept: list = []
        for node in pending:
            if unsafe(updated, round_nodes | {node}):
                kept.append(node)
            else:
                round_nodes = round_nodes | {node}
        if not round_nodes:
            raise InfeasibleUpdateError(f"policies deadlock on {kept!r}")
        rounds.append(round_nodes)
        updated |= round_nodes
        pending = kept
    if include_cleanup and joint.cleanup_updates:
        rounds.append(set(joint.cleanup_updates))
    return rounds


#: Transition filters the differential and golden runs are repeated
#: under (a filtered search has no greedy witness to lean on, so it must
#: establish feasibility itself).
FILTERS = {
    "sequential": lambda updated, round_nodes: len(round_nodes) == 1,
    "pairs": lambda updated, round_nodes: len(round_nodes) <= 2,
}


class TwinFlows:
    """Duck-typed multi-source problem with interchangeable parallel sources.

    Three roots ``s``, ``a``, ``b`` are rewired from ``u`` onto ``v``
    while the shared tail segment ``u -> v`` reverses to ``v -> u``.
    ``a`` and ``b`` share their old/new next hops and are nobody's next
    hop, so swapping them is a problem automorphism: the exact search
    may collapse their states.  (On a single path-pair UpdateProblem
    this situation cannot arise -- every on-path node has a predecessor
    -- which is exactly why the symmetry tests need a duck.)
    """

    name = "twin-flows"
    waypoint = None

    def __init__(self):
        self.source = "s"
        self.destination = "d"
        self.old_next = {"s": "u", "a": "u", "b": "u", "u": "v", "v": "d"}
        self.new_next = {"s": "v", "a": "v", "b": "v", "u": "d", "v": "u"}
        self.forwarding_nodes = frozenset(self.old_next)
        self.nodes = self.forwarding_nodes | {"d"}
        self.required_updates = frozenset(
            node
            for node in self.forwarding_nodes
            if self.old_next[node] != self.new_next[node]
        )
        self.canonical_updates = tuple(sorted(self.required_updates))
        self.cleanup_updates = frozenset()
        self.all_updates = self.required_updates
        self.old_path = SimpleNamespace(nodes=("s", "u", "v", "d"))
        self.new_path = SimpleNamespace(nodes=("s", "a", "b", "v", "u", "d"))

    def kind(self, node):
        if node in self.required_updates:
            return UpdateKind.SWITCH
        return UpdateKind.NOOP

    def next_hop(self, node, state):
        table = self.old_next if state is RuleState.OLD else self.new_next
        return table.get(node)
