"""Generated update problems, and the example budget they are run under.

Shared by the differential tests of the exact search's two short-cuts
(``test_safe_singletons.py``, ``test_precedence_fixpoints.py``): the
same path pairs go through both, through the unsafe-superset check of
``test_unsafe_rounds.py`` and through the nogood-core check of
``test_nogood_cores.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.topology.random_graphs import random_update_instance

#: The property sets the exact-search tests draw for a problem without a
#: waypoint, and for one with.
PLAIN = ((Property.SLF,), (Property.RLF,), (Property.SLF, Property.BLACKHOLE))
WAYPOINTED = PLAIN + ((Property.WPE,), (Property.WPE, Property.SLF))


def nightly() -> bool:
    """Was ``pytest --hypothesis-profile=nightly`` asked for?  (The
    profile is registered in ``tests/conftest.py``.)"""
    return settings.default is settings.get_profile("nightly")


def budget(tier1_examples: int) -> settings:
    """Tier-1 runs a small derandomized budget; the nightly profile
    replaces it with its own: more examples, fresh randomness."""
    if nightly():
        return settings()
    return settings(
        max_examples=tier1_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def update_problems(draw, min_n: int = 4, max_n: int = 14) -> UpdateProblem:
    """A path pair over ``n`` old-path nodes, with or without a waypoint,
    that has at least one required update."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    overlap = draw(st.floats(min_value=0.0, max_value=1.0))
    with_waypoint = draw(st.booleans())
    old, new, waypoint = random_update_instance(
        n, seed=seed, overlap=overlap, with_waypoint=with_waypoint
    )
    problem = UpdateProblem(old, new, waypoint=waypoint)
    assume(problem.required_updates)
    return problem
