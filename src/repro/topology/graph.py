"""Network topology model.

A :class:`Topology` is an undirected multigraph-free graph of switches and
hosts with numbered ports on every node, mirroring how OpenFlow identifies
links (``dpid`` + ``port_no``).  It is intentionally a thin, fully validated
structure: simulation state (flow tables, queues) lives in the substrate
packages, not here.

Nodes are identified by hashable ids -- integers for switch datapath ids by
convention, strings such as ``"h1"`` for hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.errors import TopologyError

NodeId = Hashable

#: Default link latency in milliseconds used when none is given.
DEFAULT_LINK_LATENCY_MS = 1.0

#: Default link bandwidth in Mbit/s used when none is given.
DEFAULT_LINK_BANDWIDTH_MBPS = 1000.0


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes with per-link attributes.

    The pair ``(a, b)`` is stored in the orientation it was added;
    :meth:`other_end` resolves either direction.
    """

    a: NodeId
    b: NodeId
    latency_ms: float = DEFAULT_LINK_LATENCY_MS
    bandwidth_mbps: float = DEFAULT_LINK_BANDWIDTH_MBPS
    port_a: int = 0
    port_b: int = 0

    def other_end(self, node: NodeId) -> NodeId:
        """Return the endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"node {node!r} is not an endpoint of {self}")

    def port_of(self, node: NodeId) -> int:
        """Return the port number this link occupies on ``node``."""
        if node == self.a:
            return self.port_a
        if node == self.b:
            return self.port_b
        raise TopologyError(f"node {node!r} is not an endpoint of {self}")

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Return the two endpoints as added."""
        return (self.a, self.b)


@dataclass
class NodeInfo:
    """Metadata for a node: its kind and free-form attributes."""

    node_id: NodeId
    kind: str = "switch"
    attrs: dict[str, Any] = field(default_factory=dict)

    def is_switch(self) -> bool:
        return self.kind == "switch"

    def is_host(self) -> bool:
        return self.kind == "host"


class Topology:
    """An undirected network graph with numbered ports.

    Example
    -------
    >>> topo = Topology()
    >>> for dpid in (1, 2, 3):
    ...     _ = topo.add_switch(dpid)
    >>> _ = topo.add_link(1, 2)
    >>> _ = topo.add_link(2, 3)
    >>> topo.port_between(2, 3)
    2
    >>> topo.peer(2, 2)
    (3, 1)
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: dict[NodeId, NodeInfo] = {}
        self._links: dict[frozenset, Link] = {}
        # node -> port number -> Link
        self._ports: dict[NodeId, dict[int, Link]] = {}
        # node -> its neighbours in port order (ports are never reused, so
        # insertion order is port order)
        self._adjacent: dict[NodeId, list[NodeId]] = {}
        self._next_port: dict[NodeId, int] = {}
        #: bumped by every node or link added and every link removed
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, kind: str = "switch", **attrs: Any) -> NodeInfo:
        """Add a node; raises :class:`TopologyError` on duplicates."""
        if node_id in self._nodes:
            raise TopologyError(f"duplicate node {node_id!r}")
        self.version += 1
        info = NodeInfo(node_id=node_id, kind=kind, attrs=dict(attrs))
        self._nodes[node_id] = info
        self._ports[node_id] = {}
        self._adjacent[node_id] = []
        self._next_port[node_id] = 1
        return info

    def add_switch(self, node_id: NodeId, **attrs: Any) -> NodeInfo:
        """Add a switch node (convenience wrapper over :meth:`add_node`)."""
        return self.add_node(node_id, kind="switch", **attrs)

    def add_host(self, node_id: NodeId, **attrs: Any) -> NodeInfo:
        """Add a host node (convenience wrapper over :meth:`add_node`)."""
        return self.add_node(node_id, kind="host", **attrs)

    def add_link(
        self,
        a: NodeId,
        b: NodeId,
        latency_ms: float = DEFAULT_LINK_LATENCY_MS,
        bandwidth_mbps: float = DEFAULT_LINK_BANDWIDTH_MBPS,
    ) -> Link:
        """Connect ``a`` and ``b``, assigning the next free port on each side."""
        if a == b:
            raise TopologyError(f"self-loop on {a!r} is not allowed")
        for node in (a, b):
            if node not in self._nodes:
                raise TopologyError(f"unknown node {node!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise TopologyError(f"duplicate link {a!r}--{b!r}")
        if latency_ms < 0:
            raise TopologyError(f"negative latency on link {a!r}--{b!r}")
        if bandwidth_mbps <= 0:
            raise TopologyError(f"non-positive bandwidth on link {a!r}--{b!r}")
        port_a = self._next_port[a]
        port_b = self._next_port[b]
        link = Link(
            a=a,
            b=b,
            latency_ms=latency_ms,
            bandwidth_mbps=bandwidth_mbps,
            port_a=port_a,
            port_b=port_b,
        )
        self._links[key] = link
        self._ports[a][port_a] = link
        self._ports[b][port_b] = link
        self._adjacent[a].append(b)
        self._adjacent[b].append(a)
        self._next_port[a] = port_a + 1
        self._next_port[b] = port_b + 1
        self.version += 1
        return link

    def remove_link(self, a: NodeId, b: NodeId) -> None:
        """Remove the link between ``a`` and ``b``; port numbers are not reused."""
        link = self.link_between(a, b)
        self.version += 1
        del self._links[frozenset((a, b))]
        del self._ports[a][link.port_of(a)]
        del self._ports[b][link.port_of(b)]
        self._adjacent[a].remove(b)
        self._adjacent[b].remove(a)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_link(self, a: NodeId, b: NodeId) -> bool:
        return frozenset((a, b)) in self._links

    def node(self, node_id: NodeId) -> NodeInfo:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise TopologyError(f"no link {a!r}--{b!r}") from None

    def port_between(self, a: NodeId, b: NodeId) -> int:
        """Return the port number on ``a`` that faces ``b``."""
        return self.link_between(a, b).port_of(a)

    def peer(self, node_id: NodeId, port: int) -> tuple[NodeId, int]:
        """Return ``(neighbor, neighbor_port)`` reached from ``node_id:port``."""
        if node_id not in self._nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        link = self._ports[node_id].get(port)
        if link is None:
            raise TopologyError(f"node {node_id!r} has no port {port}")
        other = link.other_end(node_id)
        return other, link.port_of(other)

    def ports(self, node_id: NodeId) -> dict[int, NodeId]:
        """Return ``{port: neighbor}`` for ``node_id``."""
        if node_id not in self._nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        return {
            port: link.other_end(node_id) for port, link in self._ports[node_id].items()
        }

    def neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Return the neighbors of ``node_id`` in port order."""
        try:
            return list(self._adjacent[node_id])
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def degree(self, node_id: NodeId) -> int:
        return len(self.ports(node_id))

    def nodes(self, kind: str | None = None) -> list[NodeId]:
        """Return node ids, optionally filtered by kind (``"switch"``/``"host"``)."""
        if kind is None:
            return list(self._nodes)
        return [n for n, info in self._nodes.items() if info.kind == kind]

    def switches(self) -> list[NodeId]:
        return self.nodes(kind="switch")

    def hosts(self) -> list[NodeId]:
        return self.nodes(kind="host")

    def links(self) -> list[Link]:
        return list(self._links.values())

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        frontier = list(self._nodes)[:1]
        seen = set(frontier)
        for node in frontier:
            for other in self._adjacent[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self._nodes)

    def validate(self) -> None:
        """Check internal invariants; raises :class:`TopologyError` on breakage."""
        for key, link in self._links.items():
            if frozenset(link.endpoints()) != key:
                raise TopologyError(f"link key mismatch for {link}")
            for node in link.endpoints():
                if node not in self._nodes:
                    raise TopologyError(f"link {link} references unknown {node!r}")
                if self._ports[node].get(link.port_of(node)) is not link:
                    raise TopologyError(f"port table desync at {node!r}")
        for node, links in self._ports.items():
            ends = [link.other_end(node) for link in links.values()]
            if self._adjacent.get(node) != ends:
                raise TopologyError(f"neighbour table desync at {node!r}")
