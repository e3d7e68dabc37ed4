"""Simple-path abstraction used by routing policies and update problems.

A :class:`Path` is an immutable simple (loop-free) sequence of node ids from
a source to a destination.  Update scheduling reasons purely about node
sequences; validity against a concrete :class:`~repro.topology.graph.Topology`
is an explicit, separate check so that the algorithmic core can be exercised
on abstract instances (as the cited papers do).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import PathError
from repro.topology.graph import NodeId, Topology


class Path:
    """An immutable simple path ``s -> ... -> d``.

    >>> p = Path([1, 2, 3, 4])
    >>> p.source, p.destination
    (1, 4)
    >>> p.next_hop(2)
    3
    >>> list(p.edges())
    [(1, 2), (2, 3), (3, 4)]
    """

    __slots__ = ("_nodes", "_index")

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise PathError(f"a path needs at least two nodes, got {nodes!r}")
        index: dict[NodeId, int] = {}
        for position, node in enumerate(nodes):
            if node in index:
                raise PathError(f"path is not simple: {node!r} repeats in {nodes!r}")
            index[node] = position
        self._nodes = nodes
        self._index = index

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def source(self) -> NodeId:
        return self._nodes[0]

    @property
    def destination(self) -> NodeId:
        return self._nodes[-1]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __getitem__(self, position: int) -> NodeId:
        return self._nodes[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Path):
            return self._nodes == other._nodes
        if isinstance(other, (tuple, list)):
            return self._nodes == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:
        inner = " -> ".join(repr(n) for n in self._nodes)
        return f"Path({inner})"

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def index_of(self, node: NodeId) -> int:
        """Position of ``node`` on the path (0 = source)."""
        try:
            return self._index[node]
        except KeyError:
            raise PathError(f"{node!r} is not on {self!r}") from None

    def next_hop(self, node: NodeId) -> NodeId | None:
        """Successor of ``node``; ``None`` for the destination."""
        position = self.index_of(node)
        if position == len(self._nodes) - 1:
            return None
        return self._nodes[position + 1]

    def prev_hop(self, node: NodeId) -> NodeId | None:
        """Predecessor of ``node``; ``None`` for the source."""
        position = self.index_of(node)
        if position == 0:
            return None
        return self._nodes[position - 1]

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Yield consecutive ``(u, v)`` hops."""
        for u, v in zip(self._nodes, self._nodes[1:]):
            yield (u, v)

    def before(self, node: NodeId, strict: bool = True) -> tuple[NodeId, ...]:
        """Nodes preceding ``node`` (excluding it when ``strict``)."""
        position = self.index_of(node)
        if not strict:
            position += 1
        return self._nodes[:position]

    def after(self, node: NodeId, strict: bool = True) -> tuple[NodeId, ...]:
        """Nodes following ``node`` (excluding it when ``strict``)."""
        position = self.index_of(node)
        if strict:
            position += 1
        return self._nodes[position:]

    def reversed(self) -> "Path":
        """The same node sequence traversed destination-to-source."""
        return Path(tuple(reversed(self._nodes)))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_in(self, topo: Topology) -> None:
        """Require every node to exist and every hop to be a topology link."""
        for node in self._nodes:
            if node not in topo:
                raise PathError(f"path node {node!r} missing from topology")
        for u, v in self.edges():
            if not topo.has_link(u, v):
                raise PathError(f"path hop {u!r}->{v!r} is not a link")


def as_path(value: "Path | Sequence[NodeId]") -> Path:
    """Coerce a node sequence into a :class:`Path` (idempotent)."""
    if isinstance(value, Path):
        return value
    return Path(value)
