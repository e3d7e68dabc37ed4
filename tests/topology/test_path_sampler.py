"""``sample_simple_path`` draws what ``rng.choice`` drew.

The sampler inlines ``Random.choice``'s draw: ``getrandbits`` of the
option count's bit length, redrawn until it falls below the count.  The
reference below is the loop it replaces, which called ``rng.choice``.
Both must return the same path (or ``None``) and leave the generator in
the same state, so that every churn trace and every re-plan around a
failed link stays bit-identical.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.topology.builders import fat_tree
from repro.topology.random_graphs import erdos_renyi, sample_simple_path, waxman
from tests.core.generated import budget


def reference(topo, source, destination, rng, avoid_links=(), max_tries=200):
    topo.node(source)
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


_SEED = st.integers(0, 2**32)
_TOPOLOGIES = st.one_of(
    st.builds(fat_tree, st.sampled_from([2, 4, 6])),
    st.builds(waxman, st.integers(12, 48), seed=_SEED),
    st.builds(erdos_renyi, st.integers(2, 30), st.floats(0.4, 0.9), seed=_SEED),
)


@st.composite
def sampler_calls(draw):
    topo = draw(_TOPOLOGIES)
    switches = topo.switches()
    source = draw(st.sampled_from(switches))
    destination = draw(st.sampled_from(switches))
    links = [(link.a, link.b) for link in topo.links()]
    avoid = draw(st.lists(st.sampled_from(links), max_size=6)) if links else []
    # a reversed pair names the same link: avoidance ignores direction
    avoid = [(b, a) if draw(st.booleans()) else (a, b) for a, b in avoid]
    return topo, source, destination, avoid, draw(st.sampled_from([1, 3, 200]))


@budget(150)
@given(sampler_calls(), _SEED)
def test_the_sampler_draws_what_rng_choice_drew(call, seed):
    topo, source, destination, avoid, tries = call
    for avoid_links in ((), avoid):
        ours, theirs = random.Random(seed), random.Random(seed)
        path = sample_simple_path(
            topo, source, destination, ours, avoid_links=avoid_links, max_tries=tries)
        expected = reference(
            topo, source, destination, theirs, avoid_links=avoid_links, max_tries=tries)
        assert path == expected
        assert ours.getstate() == theirs.getstate()


def test_a_one_option_step_still_draws():
    # the 2-ary fat-tree is the chain 3-2-1-4-5, one option per step;
    # rng.choice still spends a getrandbits(1) draw on each, and so must
    # the sampler
    ours, theirs = random.Random(5), random.Random(5)
    assert sample_simple_path(fat_tree(2), 3, 5, ours) == (3, 2, 1, 4, 5)
    assert reference(fat_tree(2), 3, 5, theirs) == (3, 2, 1, 4, 5)
    assert ours.getstate() == theirs.getstate() != random.Random(5).getstate()
