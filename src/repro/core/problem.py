"""The network-update problem model.

An :class:`UpdateProblem` captures a single policy change: replace the old
routing path of a flow by a new one, both simple paths between the same
source and destination, optionally constrained to traverse a waypoint
(firewall / IDS) that lies on both paths.

The transient semantics follow the model of the cited scheduling papers
(HotNets'14, PODC'15, SIGMETRICS'16): every node stores at most one rule for
the flow and is either in its OLD or its NEW state:

========  =====================  ==========================
node on   OLD state forwards to  NEW state forwards to
========  =====================  ==========================
both      old next hop           new next hop
new only  -- (drop)              new next hop
old only  old next hop           -- (rule deleted, drop)
========  =====================  ==========================

The destination never forwards.  A *configuration* is an assignment of
states to nodes; packets follow the unique out-edge of each node, so every
configuration induces a deterministic walk from the source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.errors import UpdateModelError
from repro.topology.graph import NodeId, Topology
from repro.topology.paths import Path, as_path


class RuleState(enum.Enum):
    """Which rule a node currently applies to the flow."""

    OLD = "old"
    NEW = "new"


class UpdateKind(enum.Enum):
    """What kind of change a node undergoes during the update."""

    INSTALL = "install"  # only on the new path: a rule appears
    SWITCH = "switch"    # on both paths with differing next hops
    DELETE = "delete"    # only on the old path: the rule is removed
    NOOP = "noop"        # on both paths with the same next hop


@dataclass(frozen=True)
class WaypointClasses:
    """Node sets relative to the waypoint, used by WayUp and in tests.

    ``old_pre`` / ``old_suf`` are the nodes strictly before / after the
    waypoint on the old path (``old_pre`` includes the source, ``old_suf``
    the destination); analogously for the new path.
    """

    waypoint: NodeId
    old_pre: frozenset
    old_suf: frozenset
    new_pre: frozenset
    new_suf: frozenset


class UpdateProblem:
    """An update from ``old_path`` to ``new_path``, optionally waypointed.

    >>> problem = UpdateProblem([1, 2, 3, 4], [1, 5, 3, 4], waypoint=3)
    >>> problem.kind(5)
    <UpdateKind.INSTALL: 'install'>
    >>> problem.kind(2)
    <UpdateKind.DELETE: 'delete'>
    >>> problem.next_hop(1, RuleState.NEW)
    5
    """

    def __init__(
        self,
        old_path: Path | Sequence[NodeId],
        new_path: Path | Sequence[NodeId],
        waypoint: NodeId | None = None,
        name: str = "update",
    ) -> None:
        self.old_path = as_path(old_path)
        self.new_path = as_path(new_path)
        self.waypoint = waypoint
        self.name = name
        self._validate()

    def _validate(self) -> None:
        old, new = self.old_path, self.new_path
        if old.source != new.source:
            raise UpdateModelError(
                f"paths disagree on source: {old.source!r} vs {new.source!r}"
            )
        if old.destination != new.destination:
            raise UpdateModelError(
                "paths disagree on destination: "
                f"{old.destination!r} vs {new.destination!r}"
            )
        w = self.waypoint
        if w is not None:
            if w in (old.source, old.destination):
                raise UpdateModelError(f"waypoint {w!r} must be interior")
            if w not in old or w not in new:
                raise UpdateModelError(
                    f"waypoint {w!r} must lie on both the old and the new path"
                )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def source(self) -> NodeId:
        return self.old_path.source

    @property
    def destination(self) -> NodeId:
        return self.old_path.destination

    @cached_property
    def nodes(self) -> frozenset:
        """All nodes appearing on either path."""
        return frozenset(self.old_path.nodes) | frozenset(self.new_path.nodes)

    @cached_property
    def forwarding_nodes(self) -> frozenset:
        """All nodes that may forward the flow (everything but ``d``)."""
        return self.nodes - {self.destination}

    def __repr__(self) -> str:
        w = f", waypoint={self.waypoint!r}" if self.waypoint is not None else ""
        return f"UpdateProblem({self.old_path!r} => {self.new_path!r}{w})"

    # ------------------------------------------------------------------
    # forwarding semantics
    # ------------------------------------------------------------------
    def _next_table(self, path: Path) -> dict:
        table = dict.fromkeys(self.forwarding_nodes)
        nodes = path.nodes
        table.update(zip(nodes, nodes[1:]))
        return table

    @cached_property
    def old_next(self) -> dict:
        """``{node: old next hop or None}`` for every forwarding node."""
        return self._next_table(self.old_path)

    @cached_property
    def new_next(self) -> dict:
        """``{node: new next hop or None}`` for every forwarding node."""
        return self._next_table(self.new_path)

    @cached_property
    def kind_table(self) -> dict:
        """``{node: UpdateKind}`` for every node (destination is a NOOP).

        A forwarding node is on a path exactly when it has a next hop there.
        """
        table: dict = {self.destination: UpdateKind.NOOP}
        new_next = self.new_next
        for node, old in self.old_next.items():
            new = new_next[node]
            if old is None:
                table[node] = UpdateKind.INSTALL
            elif new is None:
                table[node] = UpdateKind.DELETE
            else:
                table[node] = UpdateKind.NOOP if old == new else UpdateKind.SWITCH
        return table

    def next_hop(self, node: NodeId, state: RuleState) -> NodeId | None:
        """Effective next hop of ``node`` in ``state``; ``None`` means drop.

        Must not be called for the destination (which never forwards).
        """
        if node == self.destination:
            raise UpdateModelError("the destination does not forward")
        table = self.old_next if state is RuleState.OLD else self.new_next
        try:
            return table[node]
        except KeyError:
            raise UpdateModelError(f"{node!r} is not part of {self!r}") from None

    def kind(self, node: NodeId) -> UpdateKind:
        """Classify the change at ``node`` (see :class:`UpdateKind`)."""
        try:
            return self.kind_table[node]
        except KeyError:
            raise UpdateModelError(f"{node!r} is not part of {self!r}") from None

    def walk(self, updated) -> WalkResult:
        """Walk from the source with exactly the nodes in ``updated`` NEW.

        ``updated`` is any container of nodes; every other node applies its
        OLD rule.  A hop is one lookup in :attr:`new_next` or
        :attr:`old_next` -- no per-configuration state is built.
        """
        old_next, new_next = self.old_next, self.new_next
        return trace_walk(
            self, lambda node: (new_next if node in updated else old_next)[node]
        )

    @cached_property
    def required_updates(self) -> frozenset:
        """Nodes that *must* be updated for traffic to move: INSTALL + SWITCH."""
        kinds = self.kind_table
        return frozenset(
            node
            for node in self.forwarding_nodes
            if kinds[node] in (UpdateKind.INSTALL, UpdateKind.SWITCH)
        )

    @cached_property
    def canonical_updates(self) -> tuple:
        """The required updates in a deterministic order (sorted by repr).

        Analysis and exact-search code iterates the required set in a stable
        order many times; computing the sort once per problem keeps those
        loops off the ``sorted(..., key=repr)`` treadmill.
        """
        return tuple(sorted(self.required_updates, key=repr))

    @cached_property
    def node_bit(self) -> dict:
        """``{forwarding node: bit position}`` -- the canonical mask index.

        The required updates occupy bits ``0..k-1`` in canonical order, so
        a state of the exact search is a plain int below ``2**k`` and
        ``required_mask`` is the goal state; the remaining forwarding
        nodes (cleanup deletions, no-ops) follow on the higher bits so
        arbitrary round-safety queries can be encoded too.
        """
        order = list(self.canonical_updates)
        order.extend(
            sorted(self.forwarding_nodes - self.required_updates, key=repr)
        )
        return {node: index for index, node in enumerate(order)}

    @cached_property
    def required_mask(self) -> int:
        """Bitmask of the required updates (bits ``0..k-1`` set)."""
        return (1 << len(self.canonical_updates)) - 1

    @cached_property
    def cleanup_updates(self) -> frozenset:
        """Old-only nodes whose stale rule should eventually be deleted."""
        kinds = self.kind_table
        return frozenset(
            node for node in self.forwarding_nodes
            if kinds[node] is UpdateKind.DELETE
        )

    @cached_property
    def all_updates(self) -> frozenset:
        return self.required_updates | self.cleanup_updates

    # ------------------------------------------------------------------
    # waypoint structure
    # ------------------------------------------------------------------
    @cached_property
    def waypoint_classes(self) -> WaypointClasses:
        """Partition of path nodes around the waypoint (requires one)."""
        w = self.waypoint
        if w is None:
            raise UpdateModelError(f"{self!r} has no waypoint")
        return WaypointClasses(
            waypoint=w,
            old_pre=frozenset(self.old_path.before(w)),
            old_suf=frozenset(self.old_path.after(w)),
            new_pre=frozenset(self.new_path.before(w)),
            new_suf=frozenset(self.new_path.after(w)),
        )

    # ------------------------------------------------------------------
    # relation to a concrete topology
    # ------------------------------------------------------------------
    def validate_in(self, topo: Topology) -> None:
        """Require both paths to be routable in ``topo``."""
        self.old_path.validate_in(topo)
        self.new_path.validate_in(topo)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (the paper's REST header fields)."""
        data: dict = {
            "oldpath": list(self.old_path.nodes),
            "newpath": list(self.new_path.nodes),
        }
        if self.waypoint is not None:
            data["wp"] = self.waypoint
        if self.name != "update":
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "UpdateProblem":
        """Inverse of :meth:`to_dict` (accepts the paper's REST field names)."""
        try:
            old_path = data["oldpath"]
            new_path = data["newpath"]
        except KeyError as exc:
            raise UpdateModelError(f"missing field {exc.args[0]!r}") from None
        return cls(
            old_path,
            new_path,
            waypoint=data.get("wp"),
            name=data.get("name", "update"),
        )


@dataclass(frozen=True)
class Configuration:
    """A full assignment of rule states, inducing a deterministic walk.

    Mostly used by the exhaustive verification oracle and the dataplane
    simulator; the polynomial verifiers never materialize configurations.
    """

    problem: UpdateProblem
    states: dict = field(default_factory=dict)

    def state_of(self, node: NodeId) -> RuleState:
        return self.states.get(node, RuleState.OLD)

    def next_hop(self, node: NodeId) -> NodeId | None:
        return self.problem.next_hop(node, self.state_of(node))

    def walk_from_source(self) -> WalkResult:
        """Follow the configuration from ``s``; see :meth:`UpdateProblem.walk`."""
        return self.problem.walk(
            {node for node, state in self.states.items() if state is RuleState.NEW}
        )


@dataclass(frozen=True)
class WalkResult:
    """Outcome of following a configuration from the source.

    ``outcome`` is ``"delivered"``, ``"dropped"`` or ``"looped"``;
    ``visited`` is the node sequence in order (for a loop, the first
    repeated node terminates the sequence and is included twice).
    """

    outcome: str
    visited: tuple

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"

    @property
    def looped(self) -> bool:
        return self.outcome == "looped"

    @property
    def dropped(self) -> bool:
        return self.outcome == "dropped"

    def traversed(self, node: NodeId) -> bool:
        return node in self.visited


def trace_walk(problem: UpdateProblem, next_hop_fn, max_steps: int | None = None):
    """Deterministically walk from the source following ``next_hop_fn``.

    ``next_hop_fn(node)`` must return the successor or ``None`` for drop.
    Returns a :class:`WalkResult`.  ``max_steps`` defaults to one more than
    the node count, which suffices to detect any loop.
    """
    limit = max_steps if max_steps is not None else len(problem.nodes) + 1
    destination = problem.destination
    node = problem.source
    visited: list = [node]
    seen = {node}
    outcome = "delivered"
    while node != destination:
        if limit <= 0:
            raise UpdateModelError("walk exceeded its step limit without resolution")
        limit -= 1
        node = next_hop_fn(node)
        if node is None:
            outcome = "dropped"
            break
        visited.append(node)
        if node in seen:
            outcome = "looped"
            break
        seen.add(node)
    return WalkResult(outcome=outcome, visited=tuple(visited))
