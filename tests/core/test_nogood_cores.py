"""The round enumeration skips only what a learned nogood refutes.

At a state, ``search_mask_bnb.dfs`` keeps the *core* of each learned
nogood that can match there (:meth:`repro.core.optimal._MaskSearch.cores`)
and never reads a candidate round holding one: it jumps to the next
candidate without the core's lowest free bit.  Every round it skips is
one a nogood refutes, which the full enumeration read and settled
without a morph or a recursion.  So a run with the cores switched off
(``cores`` patched to find none: every candidate is read) must give the
same rounds, infeasibility verdict or budget interval, and the same
expansions, oracle misses, nogoods learned and singleton passes.  With
the cores on, no round that reaches ``round_ok`` holds the core of a
nogood learned before the read.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bnb, optimal
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import SafetyOracle, clear_registry, oracle_for
from repro.errors import ExactSearchBudgetError, InfeasibleUpdateError
from tests.core.generated import PLAIN, WAYPOINTED, budget, update_problems


def _solve(problem, properties, options: dict, cores: bool) -> tuple:
    """What one solve returns, and the work it counted."""
    clear_registry()
    work = SimpleNamespace(expanded=0, passes=0, refuted_reads=[])
    real_pass = SafetyOracle.safe_singletons
    real_round_ok = optimal._MaskSearch.round_ok

    def tracing_enabled():
        # with a milestone every expansion, each one asks this once
        work.expanded += 1
        return False

    def safe_singletons(oracle, updated_mask):
        work.passes += 1
        return real_pass(oracle, updated_mask)

    def round_ok(search, state, rmask):
        work.refuted_reads.extend(
            (state, rmask)
            for need_new, need_old in search.oracle.nogoods()
            if not need_old & state and not need_new & ~(state | rmask)
        )
        return real_round_ok(search, state, rmask)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnb, "_MILESTONE_EVERY", 1)
        patch.setattr(bnb, "obs", SimpleNamespace(tracing_enabled=tracing_enabled))
        patch.setattr(SafetyOracle, "safe_singletons", safe_singletons)
        if cores:
            patch.setattr(optimal._MaskSearch, "round_ok", round_ok)
        else:
            patch.setattr(optimal._MaskSearch, "cores", lambda *args: [])
        try:
            schedule = minimal_round_schedule(problem, properties, **options)
            rounds = [sorted(map(repr, nodes)) for nodes in schedule.rounds]
            outcome = ("rounds", rounds)
        except InfeasibleUpdateError as error:
            outcome = ("infeasible", str(error))
        except ExactSearchBudgetError as error:
            outcome = ("budget", error.lower, error.upper, error.nodes_expanded)
    stats = oracle_for(problem, properties).stats
    counts = (work.expanded, stats.memo_misses, stats.nogoods_learned, work.passes)
    return outcome, counts, work.refuted_reads


@budget(40)
@given(
    problem=update_problems(),
    pick=st.integers(min_value=0, max_value=len(WAYPOINTED) - 1),
    search=st.sampled_from(["iddfs", "bnb"]),
    bound=st.one_of(
        st.builds(dict, max_rounds=st.none() | st.integers(min_value=1, max_value=4)),
        st.builds(dict, node_budget=st.integers(min_value=1, max_value=60)),
    ),
)
def test_cores_change_no_outcome_and_no_count(problem, pick, search, bound):
    choices = WAYPOINTED if problem.waypoint is not None else PLAIN
    properties = choices[pick % len(choices)]
    # a node budget is a branch-and-bound knob: plain deepening refuses it
    options = {**bound, "search": "bnb" if "node_budget" in bound else search}
    jumped, counts, refuted_reads = _solve(problem, properties, options, cores=True)
    read_all, full_counts, _ = _solve(problem, properties, options, cores=False)
    assert jumped == read_all
    assert counts == full_counts
    assert refuted_reads == []
