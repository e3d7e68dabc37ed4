"""No round the exact search asks is a superset of one it found unsafe.

:class:`repro.core.optimal._MaskSearch` keeps no per-state list of
minimal unsafe rounds: such a list would only settle a query that
strictly contains a round already found unsafe at the same state, and
the DFS never asks one (candidates are subsets of the safe mask in
decreasing numeric order, the roof first; see the class docstring).
This suite wraps ``round_ok`` and holds every first query at a state to
that fact, over generated problems in both modes, under ``max_rounds``,
and on the multi-source :class:`TwinFlows` duck.  A round the
enumeration settles by a nogood's core (``_MaskSearch.cores``) never
reaches ``round_ok``; the wrap counts it as found unsafe at its state
too, so the non-vacuity guard counts what the search refuted either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import optimal
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import clear_registry
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.errors import InfeasibleUpdateError
from repro.topology.random_graphs import random_update_instance
from tests.core.generated import PLAIN, WAYPOINTED, budget, update_problems
from tests.core.reference_exact import TwinFlows

class _Core(int):
    """A nogood core that files each candidate round it settles.

    The enumeration tests a candidate as ``sub & core == core``; ``core``
    being an ``int`` subclass, ``&`` asks its reflected ``__rand__``.
    """

    def __new__(cls, core: int, unsafe: list, unsafe_verdicts: list):
        self = super().__new__(cls, core)
        self.unsafe, self.unsafe_verdicts = unsafe, unsafe_verdicts
        return self

    def __rand__(self, sub: int) -> int:
        met = int.__and__(sub, int(self))
        if met == self:
            self.unsafe_verdicts[0] += 1
            self.unsafe.append(sub)
        return met


@contextmanager
def supersets():
    """Wrap ``round_ok`` and ``cores``; the yielded list collects every
    uncached query that strictly contains a round already found unsafe
    (or settled by a core) at the same state of the same search; the
    second counts unsafe verdicts and rounds a core settled."""
    found, unsafe_verdicts = [], [0]
    real = optimal._MaskSearch.round_ok
    real_cores = optimal._MaskSearch.cores

    def cores(self, state, safe_mask, start=0):
        unsafe = self.__dict__.setdefault("_unsafe_seen", {})
        return [
            _Core(core, unsafe.setdefault(state, []), unsafe_verdicts)
            for core in real_cores(self, state, safe_mask, start)
        ]

    def round_ok(self, state, rmask):
        unsafe = self.__dict__.setdefault("_unsafe_seen", {})
        if (state << self.k) | rmask not in self._verdicts:
            found.extend(
                (state, known, rmask)
                for known in unsafe.get(state, ())
                if known & rmask == known != rmask
            )
        verdict = real(self, state, rmask)
        if not verdict:
            unsafe_verdicts[0] += 1
            unsafe.setdefault(state, []).append(rmask)
        return verdict

    with patch.object(optimal._MaskSearch, "round_ok", round_ok), patch.object(
        optimal._MaskSearch, "cores", cores
    ):
        yield found, unsafe_verdicts


def _supersets_asked(problem, properties, **options) -> list:
    clear_registry()
    with supersets() as (found, _):
        try:
            minimal_round_schedule(problem, properties, **options)
        except InfeasibleUpdateError:
            pass
    return found


@pytest.mark.parametrize("search", ["iddfs", "bnb"])
def test_the_watch_sees_unsafe_multi_node_rounds(search):
    """Not vacuous: this solve finds dozens of rounds unsafe (by a read,
    or by a nogood's core at the state)."""
    old, new, _ = random_update_instance(16, seed=5)
    clear_registry()
    with supersets() as (found, unsafe_verdicts):
        minimal_round_schedule(
            UpdateProblem(old, new), (Property.SLF,), search=search
        )
    assert unsafe_verdicts[0] >= 20 and found == []


@budget(60)
@given(
    problem=update_problems(),
    pick=st.integers(min_value=0, max_value=len(WAYPOINTED) - 1),
    search=st.sampled_from(["iddfs", "bnb"]),
    max_rounds=st.none() | st.integers(min_value=1, max_value=4),
)
def test_generated_problems(problem, pick, search, max_rounds):
    choices = WAYPOINTED if problem.waypoint is not None else PLAIN
    properties = choices[pick % len(choices)]
    assert _supersets_asked(
        problem, properties, search=search, max_rounds=max_rounds
    ) == []


@pytest.mark.parametrize("search", ["iddfs", "bnb"])
@pytest.mark.parametrize("max_rounds", [None, 1, 2, 3])
@pytest.mark.parametrize("properties", PLAIN)
def test_twin_flows_duck(properties, max_rounds, search):
    problem = TwinFlows()
    assert _supersets_asked(
        problem, properties, search=search, max_rounds=max_rounds
    ) == []
