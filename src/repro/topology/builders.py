"""Deterministic topology builders.

These construct the standard shapes used in the tests, examples and
benchmarks: lines, rings, grids, stars, binary trees, k-ary fat-trees and
the reconstruction of the paper's Figure 1 demo topology.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.graph import Topology
from repro.topology.paths import Path


def linear(n: int, with_hosts: bool = False) -> Topology:
    """A chain of ``n`` switches ``1 -- 2 -- ... -- n``.

    With ``with_hosts`` a host ``h1`` hangs off switch 1 and ``h2`` off
    switch ``n`` (the Mininet ``--topo linear`` convention).
    """
    if n < 1:
        raise TopologyError(f"linear topology needs n >= 1, got {n}")
    topo = Topology(name=f"linear-{n}")
    for dpid in range(1, n + 1):
        topo.add_switch(dpid)
    for dpid in range(1, n):
        topo.add_link(dpid, dpid + 1)
    if with_hosts:
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("h1", 1)
        topo.add_link("h2", n)
    return topo


def ring(n: int) -> Topology:
    """A cycle of ``n`` switches (``n >= 3``)."""
    if n < 3:
        raise TopologyError(f"ring topology needs n >= 3, got {n}")
    topo = Topology(name=f"ring-{n}")
    for dpid in range(1, n + 1):
        topo.add_switch(dpid)
    for dpid in range(1, n):
        topo.add_link(dpid, dpid + 1)
    topo.add_link(n, 1)
    return topo


def grid(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` mesh; dpid of cell ``(r, c)`` is ``r * cols + c + 1``."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid needs positive dimensions, got {rows}x{cols}")
    topo = Topology(name=f"grid-{rows}x{cols}")

    def dpid(r: int, c: int) -> int:
        return r * cols + c + 1

    for r in range(rows):
        for c in range(cols):
            topo.add_switch(dpid(r, c))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link(dpid(r, c), dpid(r, c + 1))
            if r + 1 < rows:
                topo.add_link(dpid(r, c), dpid(r + 1, c))
    return topo


def fat_tree(k: int = 4) -> Topology:
    """A k-ary fat-tree (k even): ``(k/2)^2`` core, ``k`` pods of ``k`` switches.

    Dpid layout: cores first, then per pod the aggregation switches, then the
    edge switches, numbered consecutively from 1.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat-tree arity must be even and >= 2, got {k}")
    topo = Topology(name=f"fat-tree-{k}")
    half = k // 2
    n_core = half * half
    cores = list(range(1, n_core + 1))
    for dpid in cores:
        topo.add_switch(dpid, layer="core")
    next_dpid = n_core + 1
    for pod in range(k):
        aggs = list(range(next_dpid, next_dpid + half))
        next_dpid += half
        edges = list(range(next_dpid, next_dpid + half))
        next_dpid += half
        for dpid in aggs:
            topo.add_switch(dpid, layer="agg", pod=pod)
        for dpid in edges:
            topo.add_switch(dpid, layer="edge", pod=pod)
        for agg in aggs:
            for edge in edges:
                topo.add_link(agg, edge)
        # aggregation switch i of each pod connects to core group i
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(agg, cores[i * half + j])
    return topo


#: Reconstructed old (solid) route of the paper's Figure 1: h1 enters at s1,
#: traffic crosses the waypoint s3 and leaves to h2 at s12.
FIGURE1_OLD_PATH = (1, 2, 9, 3, 4, 5, 12)

#: Reconstructed new (dashed) route of Figure 1.  It shares the waypoint s3
#: and the endpoints with the old route but otherwise detours through the
#: remaining switches.  The overlap exercises four of WayUp's round
#: classes: 6/7/8 are new-only (install round), 5 moves from the old suffix
#: onto the new prefix (post-waypoint round, with the waypoint itself),
#: 2 stays on both prefixes (shared-prefix round), the source diverges
#: (source round) and 4/9 become old-only (cleanup).  The "late mover"
#: class (old prefix -> new suffix) is deliberately absent: it provably
#: forces a stable transient loop between rounds (see
#: ``repro.core.hardness.crossing_instance``), which a live demo would not
#: showcase -- connectivity here only flickers within a round.
FIGURE1_NEW_PATH = (1, 6, 2, 5, 3, 7, 8, 12)

#: The waypoint (firewall / IDS) of Figure 1.
FIGURE1_WAYPOINT = 3


def figure1(with_hosts: bool = True) -> Topology:
    """The 12-switch demo topology reconstructed from the paper's Figure 1.

    The figure itself only fixes: 12 OpenFlow switches, ``h1`` at switch 1,
    ``h2`` at switch 12, waypoint switch 3, one solid (old) and one dashed
    (new) route.  We lay the switches out so that both
    :data:`FIGURE1_OLD_PATH` and :data:`FIGURE1_NEW_PATH` exist, plus spare
    switches 10 and 11 as the figure shows unused alternates.
    """
    topo = Topology(name="figure1")
    for dpid in range(1, 13):
        topo.add_switch(dpid, waypoint=(dpid == FIGURE1_WAYPOINT))
    # old (solid) route
    for u, v in zip(FIGURE1_OLD_PATH, FIGURE1_OLD_PATH[1:]):
        topo.add_link(u, v)
    # new (dashed) route -- skip hops that already exist
    for u, v in zip(FIGURE1_NEW_PATH, FIGURE1_NEW_PATH[1:]):
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    # spare switches seen in the figure but unused by either route
    topo.add_link(9, 10)
    topo.add_link(10, 11)
    topo.add_link(11, 12)
    if with_hosts:
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("h1", 1)
        topo.add_link("h2", 12)
    return topo


def figure1_paths() -> tuple[Path, Path, int]:
    """Return ``(old_path, new_path, waypoint)`` of the Figure 1 scenario."""
    return Path(FIGURE1_OLD_PATH), Path(FIGURE1_NEW_PATH), FIGURE1_WAYPOINT
