"""``SafetyOracle.safe_singletons`` against the two older judges.

The exact search asks, at every expansion, which pending nodes may flip
alone.  It used to ask the oracle once per node (morph the graph, check,
memoize); now one read-only pass over the state's functional graph
answers for all of them.  Here that pass must agree, on generated path
pairs, with

* the per-bit ``round_is_safe(mask, 1 << v)`` scan it replaced
  (:func:`reference_safe_singletons`), and
* the from-scratch :func:`round_is_safe_reference`, taken one property
  at a time: a property set's verdict is the conjunction

for **every** ``updated`` mask of the required bits -- not only the ones
a search reaches, so base states that loop, drop or bypass the waypoint
are covered -- under all 15 property sets, exact and conservative RLF.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.optimal import round_is_safe_reference
from repro.core.oracle import SafetyOracle
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from tests.core.generated import budget, nightly, update_problems
from tests.core.reference_exact import TwinFlows, reference_safe_singletons

PROPERTY_SETS = [
    subset
    for size in range(1, len(Property) + 1)
    for subset in itertools.combinations(Property, size)
]

#: Masks per problem in tier-1 when 2^k exceeds it (the nightly profile
#: looks at up to 4096, i.e. every mask through k = 12).
_TIER1_MASKS = 48


def _from_scratch(problem, masks) -> dict:
    """``{property: {mask: safe singletons}}`` with every verdict from a
    freshly built union graph."""
    canonical = problem.canonical_updates
    node_bit = {node: bit for bit, node in enumerate(canonical)}
    table: dict = {}
    for prop in Property:
        if prop is Property.WPE and problem.waypoint is None:
            continue
        per_mask = table[prop] = {}
        for mask in masks:
            updated = {node for node in canonical if mask >> node_bit[node] & 1}
            per_mask[mask] = sum(
                1 << node_bit[node]
                for node in canonical
                if node not in updated
                and round_is_safe_reference(problem, updated, {node}, (prop,))
            )
    return table


def _check(problem, masks) -> None:
    full = (1 << len(problem.canonical_updates)) - 1
    scratch = _from_scratch(problem, masks)
    for properties in PROPERTY_SETS:
        if any(prop not in scratch for prop in properties):
            continue
        for exact_rlf in (True, False) if Property.RLF in properties else (True,):
            probed = SafetyOracle(problem, properties, exact_rlf=exact_rlf)
            scanned = SafetyOracle(problem, properties, exact_rlf=exact_rlf)
            built = probed.stats.as_dict()
            for mask in masks:
                want = full
                for prop in properties:
                    want &= scratch[prop][mask]
                context = (problem, properties, exact_rlf, bin(mask))
                assert probed.safe_singletons(mask) == want, context
                scan = reference_safe_singletons(scanned.round_is_safe, mask, full)
                assert scan == want, context
                # wherever the scan's morphs left the graph, the answer
                # depends on the mask alone
                assert scanned.safe_singletons(mask) == want, context
            # read-only: no morph, no memo entry, no nogood, no counter
            assert probed.stats.as_dict() == built
            assert probed.memo_size() == 0 and not probed.nogoods()
            assert not probed.updated_nodes() and not probed.in_flight_nodes()


@st.composite
def problems_and_masks(draw):
    problem = draw(update_problems())
    full = (1 << len(problem.canonical_updates)) - 1
    cap = 4096 if nightly() else _TIER1_MASKS
    if full < cap:
        return problem, range(full + 1)
    # (a drawn seed, not a drawn set: thousands of unique integers are
    # more than one hypothesis example may hold)
    sample = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return problem, sorted({0, full, *sample.sample(range(full + 1), cap)})


@budget(40)
@given(problems_and_masks())
def test_one_pass_agrees_with_the_scan_and_the_reference(case):
    _check(*case)


def test_source_walk_into_a_cycle_through_the_waypoint():
    # with 4 updated the walk is 1 2 3 4 2 ...: it meets the waypoint
    # inside a cycle, so "before the waypoint" is the walked prefix 1 2 3
    # -- not what the source reaches minus what the waypoint reaches,
    # which is {1} here and would let 2 flip onto its bypass 2 5 6.
    # Only sets without SLF / RLF get this far (those reject the base).
    problem = UpdateProblem([1, 2, 3, 4, 5, 6], [1, 3, 4, 2, 5, 6], waypoint=4)
    oracle = SafetyOracle(problem, (Property.WPE,))
    assert problem.walk({4}).visited == (1, 2, 3, 4, 2)
    safe = oracle.safe_singletons(oracle.mask_of({4}))
    assert oracle.nodes_of(safe) == {1}
    _check(problem, range(problem.required_mask + 1))


def test_twin_flows_duck():
    # several roots, no node_bit table, nodes that are nobody's next hop
    problem = TwinFlows()
    _check(problem, range(1 << len(problem.canonical_updates)))
