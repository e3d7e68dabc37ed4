"""Transient-state machinery: phases, union graphs, configuration spaces.

During round ``i`` of a schedule the network can be in any configuration
where nodes of earlier rounds are NEW, nodes of later rounds (or unscheduled
nodes) are OLD, and nodes of round ``i`` are *either*.  The **union graph**
gives every node the set of out-edges it may have in any such configuration.

Key facts (proved in the cited papers, exploited by the verifiers):

* a simple cycle of the union graph uses at most one out-edge per node, so
  it is realized by some configuration -- and every configuration's
  forwarding graph is a subgraph of the union graph.  Hence *strong loop
  freedom of the round* is exactly *acyclicity of the union graph*;
* the same argument applies to simple paths, which makes waypoint
  enforcement and blackhole freedom checkable by plain reachability.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.errors import VerificationError
from repro.core.problem import Configuration, RuleState, UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.topology.graph import NodeId


class NodePhase(enum.Enum):
    """Where a node stands relative to the round under scrutiny."""

    FIXED_OLD = "fixed_old"  # updates in a later round / never
    FIXED_NEW = "fixed_new"  # updated in an earlier round
    FLEXIBLE = "flexible"    # updates in this round: state unknown


def phases_for_round(
    schedule: UpdateSchedule, round_index: int
) -> dict[NodeId, NodePhase]:
    """Map every forwarding node to its :class:`NodePhase` in ``round_index``."""
    if not 0 <= round_index < schedule.n_rounds:
        raise VerificationError(
            f"round index {round_index} out of range 0..{schedule.n_rounds - 1}"
        )
    phases: dict[NodeId, NodePhase] = {}
    for node in schedule.problem.forwarding_nodes:
        node_round = schedule.round_of(node)
        if node_round is None or node_round > round_index:
            phases[node] = NodePhase.FIXED_OLD
        elif node_round < round_index:
            phases[node] = NodePhase.FIXED_NEW
        else:
            phases[node] = NodePhase.FLEXIBLE
    return phases


@dataclass(frozen=True)
class EdgeChoice:
    """One possible behaviour of a node: forward to ``target`` or drop."""

    state: RuleState
    target: NodeId | None  # None = drop

    @property
    def drops(self) -> bool:
        return self.target is None


def _options(problem, node: NodeId, phase: NodePhase) -> tuple[EdgeChoice, ...]:
    """The behaviours ``node`` may show while in ``phase``."""
    if phase is NodePhase.FIXED_OLD:
        return (EdgeChoice(RuleState.OLD, problem.next_hop(node, RuleState.OLD)),)
    if phase is NodePhase.FIXED_NEW:
        return (EdgeChoice(RuleState.NEW, problem.next_hop(node, RuleState.NEW)),)
    old = EdgeChoice(RuleState.OLD, problem.next_hop(node, RuleState.OLD))
    new = EdgeChoice(RuleState.NEW, problem.next_hop(node, RuleState.NEW))
    return (old,) if old.target == new.target else (old, new)


_DROPS = ((), True)  # a slot with no rule: no successor, packets dropped


def _slots(old: NodeId | None, new: NodeId | None) -> tuple:
    """A node's ``(FIXED_OLD, FIXED_NEW, FLEXIBLE)`` slots, each
    ``(successors, may_drop)`` -- what :func:`_options` yields, as targets."""
    old_slot = ((old,), False) if old is not None else _DROPS
    if old == new:
        return old_slot, old_slot, old_slot
    new_slot = ((new,), False) if new is not None else _DROPS
    if old is None:
        return old_slot, new_slot, ((new,), True)
    if new is None:
        return old_slot, new_slot, ((old,), True)
    return old_slot, new_slot, ((old, new), False)


class UnionGraph:
    """All possible out-edges of every node during one round.

    Construct with :meth:`for_round`.  Every forwarding node keeps its
    phase and, from a table of its three possible slots built once per
    graph, the successor tuple the graph queries run over; a step to the
    next round is one slot lookup per node that changed.  The
    :class:`EdgeChoice` view is derived only when :meth:`choices` asks.
    """

    def __init__(self, problem, phases: dict[NodeId, NodePhase]) -> None:
        """``problem`` only needs ``forwarding_nodes``, ``source``,
        ``destination`` and either ``old_next`` / ``new_next`` tables or
        ``next_hop`` -- :class:`~repro.core.problem.UpdateProblem`
        satisfies this, as do the multi-policy views.
        Forwarding nodes missing from ``phases`` are FIXED_OLD."""
        self.problem = problem
        nodes = problem.forwarding_nodes
        old_next = getattr(problem, "old_next", None)
        new_next = getattr(problem, "new_next", None)
        if old_next is None or new_next is None:
            old_next = {node: problem.next_hop(node, RuleState.OLD) for node in nodes}
            new_next = {node: problem.next_hop(node, RuleState.NEW) for node in nodes}
        self._phases: dict[NodeId, NodePhase] = {}
        self._table: dict[NodeId, tuple] = {}
        self._succ: dict[NodeId, tuple] = {}
        self._may_drop: set = set()
        flexible: set = set()
        fixed_old, fixed_new = NodePhase.FIXED_OLD, NodePhase.FIXED_NEW
        for node in nodes:
            phase = phases.get(node, fixed_old)
            slots = self._table[node] = _slots(old_next[node], new_next[node])
            self._phases[node] = phase
            if phase is fixed_old:
                targets, drops = slots[0]
            elif phase is fixed_new:
                targets, drops = slots[1]
            else:
                targets, drops = slots[2]
                flexible.add(node)
            self._succ[node] = targets
            if drops:
                self._may_drop.add(node)
        self.flexible = frozenset(flexible)
        #: both paths' nodes and positions, set by the first
        #: :meth:`cycle_through_flexible` together with the phase masks
        self._runs: tuple | None = None
        self._hops = 0  # stretches crossed so far (work-bound tests)

    @classmethod
    def for_round(cls, schedule: UpdateSchedule, round_index: int) -> "UnionGraph":
        phases = phases_for_round(schedule, round_index)
        return cls.from_phases(schedule.problem, phases)

    @classmethod
    def from_phases(
        cls, problem, phases: dict[NodeId, NodePhase]
    ) -> "UnionGraph":
        """Build from an explicit phase map (see :meth:`__init__`)."""
        return cls(problem, phases)

    @classmethod
    def from_update_sets(
        cls, problem, updated: set, in_flight: set
    ) -> "UnionGraph":
        """Build from 'already updated' / 'updating right now' node sets."""
        phases = {node: NodePhase.FIXED_NEW for node in updated}
        phases.update({node: NodePhase.FLEXIBLE for node in in_flight})
        return cls.from_phases(problem, phases)

    def advance(self, settled: frozenset, in_flight: frozenset) -> None:
        """Step to the next round in place: ``settled`` (the round that
        just completed) becomes FIXED_NEW, ``in_flight`` FLEXIBLE.  Only
        those nodes change; phases, successors and node order end up
        exactly as :meth:`for_round` would build them."""
        phases, table, succ, may_drop = (
            self._phases, self._table, self._succ, self._may_drop
        )
        for nodes, phase, slot in (
            (settled, NodePhase.FIXED_NEW, 1),
            (in_flight, NodePhase.FLEXIBLE, 2),
        ):
            for node in nodes:
                if node in phases:
                    phases[node] = phase
                    succ[node], drops = table[node][slot]
                    (may_drop.add if drops else may_drop.discard)(node)
                    if self._runs is not None:
                        self._mark(node, phase)
        self.flexible = frozenset(node for node in in_flight if node in phases)

    def _mark(self, node: NodeId, phase: NodePhase) -> None:
        """Note a node leaving FIXED_OLD: bit i of ``_not_old`` says the
        i-th old-path node is not FIXED_OLD, ``_not_new`` likewise."""
        _, old_pos, _, new_pos = self._runs
        if node in old_pos:
            self._not_old |= 1 << old_pos[node]
        if node in new_pos:
            if phase is NodePhase.FIXED_NEW:
                self._not_new &= ~(1 << new_pos[node])
            else:
                self._not_new |= 1 << new_pos[node]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def choices(self, node: NodeId) -> tuple[EdgeChoice, ...]:
        """Possible behaviours of ``node`` (empty tuple for the destination)."""
        phase = self._phases.get(node)
        return () if phase is None else _options(self.problem, node, phase)

    def successors(self, node: NodeId) -> list[NodeId]:
        """Possible forwarding targets of ``node`` (drops excluded)."""
        return list(self._succ.get(node, ()))

    def may_drop(self, node: NodeId) -> bool:
        """True when some configuration drops packets at ``node``."""
        return node in self._may_drop

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._phases)

    # ------------------------------------------------------------------
    # graph queries (witness-producing)
    # ------------------------------------------------------------------
    def reachable_from(self, start: NodeId) -> dict[NodeId, NodeId | None]:
        """BFS over union edges; returns ``{node: parent}`` for reached nodes."""
        succ = self._succ
        parents: dict[NodeId, NodeId | None] = {start: None}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for target in succ.get(node, ()):
                    if target not in parents:
                        parents[target] = node
                        next_frontier.append(target)
            frontier = next_frontier
        return parents

    def path_to(
        self, destination: NodeId, avoid: NodeId | None = None
    ) -> tuple[NodeId, ...] | None:
        """A simple path source -> ``destination`` avoiding ``avoid``, or None."""
        start = self.problem.source
        if start == avoid:
            return None
        succ = self._succ
        parents: dict[NodeId, NodeId | None] = {start: None}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for target in succ.get(node, ()):
                    if target == avoid or target in parents:
                        continue
                    parents[target] = node
                    if target == destination:
                        return _unwind(parents, destination)
                    next_frontier.append(target)
            frontier = next_frontier
        return None

    def find_cycle(self, within: set | None = None) -> tuple[NodeId, ...] | None:
        """A directed cycle of the union graph, or None.

        ``within`` restricts the search to a node subset (used for the
        reachable-cycle pre-filter of relaxed loop freedom).
        """
        allowed = within if within is not None else set(self._phases) | {
            self.problem.destination
        }
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(allowed, WHITE)
        succ = self._succ
        on_stack: list[NodeId] = []
        for root in allowed:
            if color[root] != WHITE:
                continue
            stack: list[Iterator[NodeId]] = [iter(succ.get(root, ()))]
            color[root] = GREY
            on_stack.append(root)
            while stack:
                for target in stack[-1]:
                    state = color.get(target)  # None: outside ``within``
                    if state == GREY:
                        cycle_start = on_stack.index(target)
                        return tuple(on_stack[cycle_start:]) + (target,)
                    if state == WHITE:
                        color[target] = GREY
                        on_stack.append(target)
                        stack.append(iter(succ.get(target, ())))
                        break
                else:
                    stack.pop()
                    color[on_stack.pop()] = BLACK
        return None

    def cycle_through_flexible(self) -> bool:
        """Could a cycle run through a flexible node?  False is definite.

        If the graph one :meth:`advance` ago was acyclic, every cycle of
        this one uses a rule that step added, so it passes a flexible
        node; a False here then proves the whole graph acyclic.  Between
        two flexible nodes a walk has one way to go: a FIXED_OLD node
        follows the old path until the first node that is not FIXED_OLD, a
        FIXED_NEW node the new path likewise, and either stretch is one
        scan for the next set bit of a phase mask.  The graph contracted
        to the flexible nodes is then checked by peeling off nodes nothing
        points at.  True (for :meth:`find_cycle` to settle) also covers
        problems that are not two paths and walks longer than the graph.
        """
        problem = self.problem
        if not isinstance(problem, UpdateProblem):
            return True
        if self._runs is None:
            old_nodes, new_nodes = problem.old_path.nodes, problem.new_path.nodes
            self._runs = (
                old_nodes, {node: i for i, node in enumerate(old_nodes)},
                new_nodes, {node: i for i, node in enumerate(new_nodes)},
            )
            # all FIXED_OLD; the destination's bit ends either path's last run
            self._not_old = 1 << len(old_nodes) - 1
            self._not_new = (1 << len(new_nodes)) - 1
            for node, phase in self._phases.items():
                if node in self.flexible:
                    self._mark(node, NodePhase.FLEXIBLE)
                elif phase is NodePhase.FIXED_NEW:
                    self._mark(node, NodePhase.FIXED_NEW)
        old_nodes, old_pos, new_nodes, new_pos = self._runs
        not_old, not_new = self._not_old, self._not_new
        flexible, destination = self.flexible, problem.destination
        limit = self._hops + len(self._phases)  # a hop per fixed node at most
        ends: dict[NodeId, NodeId] = {}  # fixed node -> where its walk gets to
        landings: dict[NodeId, list] = {}
        for start in flexible:
            landings[start] = landed = []
            for node in self._succ[start]:
                trail = []
                while node not in flexible and node != destination:
                    if node in ends:
                        node = ends[node]
                        break
                    trail.append(node)
                    self._hops += 1
                    if self._hops > limit:
                        return True
                    at = old_pos.get(node)
                    if at is not None and not not_old >> at & 1:
                        ahead = not_old >> at + 1
                        node = old_nodes[at + (ahead & -ahead).bit_length()]
                        continue
                    at = new_pos.get(node)
                    if at is None or not_new >> at & 1:
                        node = destination  # no rule in its phase: dropped,
                        break               # which closes no cycle either
                    ahead = not_new >> at + 1
                    node = new_nodes[at + (ahead & -ahead).bit_length()]
                for passed in trail:
                    ends[passed] = node
                if node != destination:
                    landed.append(node)
        incoming = dict.fromkeys(flexible, 0)
        for landed in landings.values():
            for node in landed:
                incoming[node] += 1
        free = [node for node, count in incoming.items() if not count]
        for start in free:  # grows as peeling frees more nodes
            for node in landings[start]:
                incoming[node] -= 1
                if not incoming[node]:
                    free.append(node)
        return len(free) < len(flexible)

    def reachable_drop(self) -> tuple[tuple[NodeId, ...], NodeId] | None:
        """A ``(path, node)`` where ``node`` is s-reachable and may drop."""
        if not self._may_drop:
            return None
        parents = self.reachable_from(self.problem.source)
        may_drop = self._may_drop
        for node in parents:
            if node in may_drop:
                return _unwind(parents, node), node
        return None


def _unwind(parents: dict, node: NodeId) -> tuple[NodeId, ...]:
    """Reconstruct the BFS path ending at ``node``."""
    path = [node]
    while parents[node] is not None:
        node = parents[node]
        path.append(node)
    path.reverse()
    return tuple(path)


def enumerate_round_configurations(
    schedule: UpdateSchedule,
    round_index: int,
    max_flexible: int = 20,
) -> Iterator[Configuration]:
    """Yield every configuration reachable during ``round_index``.

    Exponential in the round size -- this is the oracle the polynomial
    verifiers are validated against, not the production path.
    """
    problem = schedule.problem
    phases = phases_for_round(schedule, round_index)
    flexible = sorted(
        (n for n, p in phases.items() if p is NodePhase.FLEXIBLE), key=repr
    )
    if len(flexible) > max_flexible:
        raise VerificationError(
            f"round {round_index} has {len(flexible)} flexible nodes; "
            f"exhaustive enumeration capped at {max_flexible}"
        )
    base = {
        node: RuleState.NEW
        for node, phase in phases.items()
        if phase is NodePhase.FIXED_NEW
    }
    for size in range(len(flexible) + 1):
        for subset in itertools.combinations(flexible, size):
            states = dict(base)
            states.update({node: RuleState.NEW for node in subset})
            yield Configuration(problem=problem, states=states)


def functional_graph(config: Configuration) -> dict[NodeId, NodeId | None]:
    """The single out-edge of every forwarding node under ``config``."""
    problem = config.problem
    return {node: config.next_hop(node) for node in problem.forwarding_nodes}


def functional_cycle(config: Configuration) -> tuple[NodeId, ...] | None:
    """Find a cycle in a configuration's functional graph, if any."""
    graph = functional_graph(config)
    state: dict[NodeId, int] = {}
    for root in graph:
        if state.get(root):
            continue
        trail: list[NodeId] = []
        node: NodeId | None = root
        while node is not None and node in graph and not state.get(node):
            state[node] = 1
            trail.append(node)
            node = graph[node]
        if node is not None and state.get(node) == 1:
            start = trail.index(node)
            return tuple(trail[start:]) + (node,)
        for visited in trail:
            state[visited] = 2
    return None
