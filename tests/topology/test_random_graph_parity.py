"""The stdlib Waxman and G(n, p) samplers draw networkx's exact graphs.

``waxman`` and ``erdos_renyi`` replay what ``networkx.waxman_graph`` /
``gnp_random_graph`` draw from an int seed.  The reference below is the
networkx-backed generator they replace: one networkx graph per attempt,
seeded ``rng.randrange(2**31)``, kept once connected, its nodes relabelled
``1..n`` and its edges added in relabelled order.  Both must give the same
links on the same ports, or raise the same error.
"""

import random

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.graph import Topology
from repro.topology.random_graphs import (
    WAXMAN_ALPHA,
    WAXMAN_BETA,
    erdos_renyi,
    waxman,
)
from tests.core.generated import budget

_N = st.integers(1, 64)
_SEED = st.integers(0, 2**32)
_P = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, -0.5, 1.5, 0.01, 0.05, 0.1]),
)


def reference(factory, n: int, seed: int, name: str) -> Topology:
    rng = random.Random(seed)
    for _ in range(200):
        graph = factory(rng.randrange(2**31))
        if n <= 1 or nx.is_connected(graph):
            break
    else:
        raise TopologyError(f"could not sample a connected graph with n={n}")
    topo = Topology(name=name)
    relabel = {node: i + 1 for i, node in enumerate(sorted(graph.nodes()))}
    for node in sorted(relabel.values()):
        topo.add_switch(node)
    for u, v in sorted(graph.edges(), key=lambda e: (relabel[e[0]], relabel[e[1]])):
        topo.add_link(relabel[u], relabel[v])
    return topo


def outcome(build):
    try:
        topo = build()
    except Exception as exc:  # the error is part of what must match
        return type(exc), str(exc)
    return topo.name, topo.nodes(), [
        (link.a, link.b, link.port_a, link.port_b) for link in topo.links()
    ]


@budget(60)
@given(_N, _P, _SEED)
def test_erdos_renyi_draws_networkx_graph(n, p, seed):
    expected = outcome(lambda: reference(
        lambda s: nx.gnp_random_graph(n, p, seed=s), n, seed, f"er-{n}-{p}"))
    assert outcome(lambda: erdos_renyi(n, p, seed=seed)) == expected


@budget(60)
@given(st.integers(2, 64), _SEED)
def test_waxman_draws_networkx_graph(n, seed):
    expected = outcome(lambda: reference(
        lambda s: nx.waxman_graph(n, alpha=WAXMAN_ALPHA, beta=WAXMAN_BETA, seed=s),
        n, seed, f"waxman-{n}"))
    assert outcome(lambda: waxman(n, seed=seed)) == expected


def test_a_one_node_waxman_is_one_switch():
    # networkx's waxman_graph raises a bare ValueError here: the largest
    # distance is taken over no pairs
    topo = waxman(1, seed=3)
    assert topo.switches() == [1] and topo.links() == []
