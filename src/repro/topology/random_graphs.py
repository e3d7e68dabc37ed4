"""Random topologies and random update instances.

All generators take an explicit :class:`random.Random` (or a seed) so every
experiment is reproducible.  Graph generators delegate to :mod:`networkx`
and re-wrap the result as a :class:`~repro.topology.graph.Topology`;
instance generators produce the abstract (old path, new path, waypoint)
triples the scheduling core consumes.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import TopologyError
from repro.topology.graph import Topology
from repro.topology.paths import Path


def _as_rng(seed_or_rng: int | random.Random | None) -> random.Random:
    """Coerce an int seed / Random / None into a Random instance."""
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _from_networkx(graph: nx.Graph, name: str) -> Topology:
    """Wrap a connected networkx graph as a Topology with 1-based dpids."""
    topo = Topology(name=name)
    relabel = {node: i + 1 for i, node in enumerate(sorted(graph.nodes()))}
    for node in sorted(relabel.values()):
        topo.add_switch(node)
    for u, v in sorted(graph.edges(), key=lambda e: (relabel[e[0]], relabel[e[1]])):
        topo.add_link(relabel[u], relabel[v])
    return topo


def _connected(factory, n: int, rng: random.Random, attempts: int = 200) -> nx.Graph:
    """Call ``factory(seed)`` until it yields a connected graph."""
    import networkx as nx

    for _ in range(attempts):
        graph = factory(rng.randrange(2**31))
        if n <= 1 or nx.is_connected(graph):
            return graph
    raise TopologyError(f"could not sample a connected graph with n={n}")


def erdos_renyi(n: int, p: float, seed: int | random.Random | None = None) -> Topology:
    """Connected Erdos-Renyi G(n, p) topology."""
    if n < 1:
        raise TopologyError(f"need n >= 1, got {n}")
    import networkx as nx

    rng = _as_rng(seed)
    graph = _connected(lambda s: nx.gnp_random_graph(n, p, seed=s), n, rng)
    return _from_networkx(graph, name=f"er-{n}-{p}")


def waxman(
    n: int,
    alpha: float = 0.4,
    beta: float = 0.4,
    seed: int | random.Random | None = None,
) -> Topology:
    """Connected Waxman random topology (the classic ISP-like model)."""
    if n < 1:
        raise TopologyError(f"need n >= 1, got {n}")
    import networkx as nx

    rng = _as_rng(seed)
    graph = _connected(
        lambda s: nx.waxman_graph(n, alpha=alpha, beta=beta, seed=s), n, rng
    )
    return _from_networkx(graph, name=f"waxman-{n}")


def sample_simple_path(
    topo: Topology,
    source,
    destination,
    rng: random.Random,
    avoid_links: Iterable[tuple] = (),
    max_tries: int = 200,
) -> tuple | None:
    """Randomized-DFS simple path avoiding dead links; None when stuck.

    The sampler of the churn traces, the churn re-planner (``avoid_links``
    = failed links) and :func:`random_simple_path`.  Link avoidance is
    direction-insensitive.
    """
    dead = set()
    for u, v in avoid_links:
        dead.add((u, v))
        dead.add((v, u))
    for _ in range(max_tries):
        path = [source]
        seen = {source}
        node = source
        while node != destination:
            options = [
                n
                for n in topo.neighbors(node)
                if n not in seen and (node, n) not in dead
            ]
            if not options:
                break
            node = rng.choice(options)
            path.append(node)
            seen.add(node)
        if node == destination:
            return tuple(path)
    return None


def random_simple_path(
    topo: Topology,
    source,
    destination,
    seed: int | random.Random | None = None,
    max_tries: int = 500,
) -> Path:
    """Sample a uniform-ish random simple path via randomized DFS."""
    rng = _as_rng(seed)
    path = sample_simple_path(topo, source, destination, rng, max_tries=max_tries)
    if path is None:
        raise TopologyError(
            f"could not sample a simple path {source!r}->{destination!r}"
        )
    return Path(path)


def random_update_instance(
    n: int,
    seed: int | random.Random | None = None,
    overlap: float = 0.5,
    with_waypoint: bool = False,
) -> tuple[Path, Path, object | None]:
    """Sample an abstract update instance ``(old, new, waypoint)``.

    The old path is the line ``1 .. n``.  The new path keeps the endpoints,
    keeps each interior node with probability ``overlap`` plus fresh nodes
    ``n+1, n+2, ...`` for the dropped ones, and permutes the interior --
    mirroring how the scheduling papers generate adversarial-ish inputs.
    When ``with_waypoint`` a common interior node is designated waypoint
    (one is added if the permutation kept none).
    """
    if n < 3:
        raise TopologyError(f"need n >= 3 for an update instance, got {n}")
    rng = _as_rng(seed)
    old_nodes = list(range(1, n + 1))
    interior = old_nodes[1:-1]
    kept = [v for v in interior if rng.random() < overlap]
    if with_waypoint and not kept:
        kept = [rng.choice(interior)]
    fresh_count = len(interior) - len(kept)
    fresh = list(range(n + 1, n + 1 + fresh_count))
    new_interior = kept + fresh
    rng.shuffle(new_interior)
    new_nodes = [old_nodes[0], *new_interior, old_nodes[-1]]
    old_path = Path(old_nodes)
    new_path = Path(new_nodes)
    waypoint = None
    if with_waypoint:
        waypoint = rng.choice(kept)
    return old_path, new_path, waypoint


def random_waypointed_instance(
    n: int, seed: int | random.Random | None = None, overlap: float = 0.5
) -> tuple[Path, Path, object]:
    """Like :func:`random_update_instance` but always with a waypoint."""
    old_path, new_path, waypoint = random_update_instance(
        n, seed=seed, overlap=overlap, with_waypoint=True
    )
    assert waypoint is not None
    return old_path, new_path, waypoint


def random_path_pair_in(
    topo: Topology,
    seed: int | random.Random | None = None,
    max_tries: int = 200,
) -> tuple[Path, Path]:
    """Sample two distinct simple paths between a random switch pair."""
    rng = _as_rng(seed)
    switches: Iterable = topo.switches()
    switches = list(switches)
    if len(switches) < 2:
        raise TopologyError("need at least two switches")
    for _ in range(max_tries):
        source, destination = rng.sample(switches, 2)
        try:
            old_path = random_simple_path(topo, source, destination, rng)
            new_path = random_simple_path(topo, source, destination, rng)
        except TopologyError:
            continue
        if old_path != new_path:
            return old_path, new_path
    raise TopologyError("could not sample a distinct path pair")
