"""Random topologies and random update instances.

All generators take an explicit :class:`random.Random` (or a seed) so every
experiment is reproducible.  The graph generators draw exactly what
networkx's ``waxman_graph`` / ``gnp_random_graph`` draw from an int seed
(a plain ``random.Random(seed)`` per attempt, pairs in ``combinations``
order), so their topologies match networkx's link for link; instance
generators produce the abstract (old path, new path, waypoint) triples the
scheduling core consumes.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable

from repro.errors import TopologyError
from repro.topology.graph import Topology
from repro.topology.paths import Path

#: Waxman's model: two nodes at distance ``d`` are linked with probability
#: ``WAXMAN_BETA * exp(-d / (WAXMAN_ALPHA * L))``, ``L`` the largest distance.
WAXMAN_ALPHA = 0.4
WAXMAN_BETA = 0.4


def _as_rng(seed_or_rng: int | random.Random | None) -> random.Random:
    """Coerce an int seed / Random / None into a Random instance."""
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _connected(draw_edges, n: int, rng: random.Random, name: str) -> Topology:
    """Build switches ``1..n`` linked by ``draw_edges``' 0-based pairs, in
    order, until the topology is connected (at most 200 attempts); each
    attempt draws from a fresh ``random.Random`` seeded off ``rng``."""
    if n < 1:
        raise TopologyError(f"need n >= 1, got {n}")
    for _ in range(200):
        topo = Topology(name=name)
        for node in range(1, n + 1):
            topo.add_switch(node)
        for u, v in draw_edges(random.Random(rng.randrange(2**31))):
            topo.add_link(u + 1, v + 1)
        if topo.is_connected():
            return topo
    raise TopologyError(f"could not sample a connected graph with n={n}")


def erdos_renyi(n: int, p: float, seed: int | random.Random | None = None) -> Topology:
    """Connected Erdos-Renyi G(n, p) topology."""

    def draw_edges(draw: random.Random) -> Iterable[tuple[int, int]]:
        pairs = combinations(range(n), 2)
        if p >= 1:
            return pairs
        if p <= 0:
            return ()
        return [pair for pair in pairs if draw.random() < p]

    return _connected(draw_edges, n, _as_rng(seed), name=f"er-{n}-{p}")


def waxman(n: int, seed: int | random.Random | None = None) -> Topology:
    """Connected Waxman random topology (the classic ISP-like model)."""

    def draw_edges(draw: random.Random) -> list[tuple[int, int]]:
        pos = [(draw.uniform(0, 1), draw.uniform(0, 1)) for _ in range(n)]
        scale = WAXMAN_ALPHA * max(
            (math.dist(a, b) for a, b in combinations(pos, 2)), default=0.0
        )
        return [(u, v) for u, v in combinations(range(n), 2) if draw.random()
                < WAXMAN_BETA * math.exp(-math.dist(pos[u], pos[v]) / scale)]

    return _connected(draw_edges, n, _as_rng(seed), name=f"waxman-{n}")


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
    topo.node(source)  # an unknown source raises TopologyError
    adjacent = topo._adjacent  # neighbours in port order, read per step
    getrandbits = rng.getrandbits
    dead = set()
    for u, v in avoid_links:
        dead.add((u, v))
        dead.add((v, u))
    for _ in range(max_tries):
        path = [source]
        seen = {source}
        node = source
        while node != destination:
            if dead:
                options = [
                    n
                    for n in adjacent[node]
                    if n not in seen and (node, n) not in dead
                ]
            else:
                options = [n for n in adjacent[node] if n not in seen]
            if not options:
                break
            # rng.choice(options), inlined: the same getrandbits draws
            count = len(options)
            bits = count.bit_length()
            pick = getrandbits(bits)
            while pick >= count:
                pick = getrandbits(bits)
            node = options[pick]
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
