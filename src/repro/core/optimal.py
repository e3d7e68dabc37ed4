"""Exact minimum-round scheduling by exhaustive search.

Deciding how few rounds suffice for a property combination is NP-hard in
general (Ludwig et al., SIGMETRICS'16), so this module brute-forces small
instances.  It is the ground truth the greedy schedulers are compared
against in tests and in the E3 ablations, and it doubles as an
infeasibility prover (e.g. WPE together with strong loop freedom can be
unachievable).

There is one search: the depth-limited, iteratively deepened DFS of
:func:`repro.core.bnb.search_mask_bnb`, over plain-int states, rounds and
memo keys (the problem's canonical node↔bit index,
:attr:`~repro.core.problem.UpdateProblem.node_bit`).  Per state its
candidate rounds are the subsets of the safe singletons, biggest first,
minus those a forced chain or a learned nogood rules out.
:class:`_MaskSearch` is the verdict layer under it: the shared
:class:`SafetyOracle` behind a monotonicity memo (one safe big round
settles every candidate inside it).  Only rounds of two or more nodes
morph the oracle's graph.

:func:`minimal_round_schedule` picks the DFS's mode from the instance
size: up to :data:`DEEPENING_MAX_UPDATES` required updates it deepens
from the forced-chain bound up to the greedy witness
(``search="iddfs"``); above, or under a budget, it returns the greedy
incumbent once it is proven optimal (``search="bnb"``).

The from-scratch breadth-first reference the search is checked against
lives in ``tests/core/reference_exact.py``; its verdict function,
:func:`round_is_safe_reference`, stays here because the verifier tests
and the nogood tests use it too.
"""

from __future__ import annotations

from itertools import islice

from repro.errors import InfeasibleUpdateError, VerificationError
from repro.core.bnb import search_mask_bnb
from repro.core.oracle import SafetyOracle, oracle_for
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.transient import UnionGraph
from repro.core.verify import Property, _check_union

#: Safety limit on the number of required updates the exact search
#: accepts (12 in the seed-era frozenset BFS); beyond it, wall clock --
#: not memory -- is the limit.
DEFAULT_MAX_NODES = 24

#: Required-update count up to which plain deepening is the mode of
#: choice; past it the incumbent short-cut keeps exact cells inside
#: their budgets (forced-chain pruning and nogoods work on both sides).
DEEPENING_MAX_UPDATES = 18


def round_is_safe_reference(
    problem: UpdateProblem,
    updated: set,
    round_nodes: set,
    properties: tuple[Property, ...],
) -> bool:
    """From-scratch round-safety check (the oracle's reference twin).

    Rebuilds the union graph and runs the witness-producing verifiers of
    :mod:`repro.core.verify` on it, one property at a time and stopping
    at the first violation.  Kept as the ground truth that
    :class:`~repro.core.oracle.SafetyOracle` is cross-checked against.
    """
    union = UnionGraph.from_update_sets(problem, updated, round_nodes)
    return not any(
        _check_union(union, 0, (prop,), True)[0] for prop in properties
    )


def round_is_safe(
    problem: UpdateProblem,
    updated: set,
    round_nodes: set,
    properties: tuple[Property, ...],
    oracle: SafetyOracle | None = None,
) -> bool:
    """Is flipping ``round_nodes`` (after ``updated``) safe for all properties?

    Routed through the shared per-problem :class:`SafetyOracle`, so
    repeated probes (the analysis helpers, the exact search, diagnostics)
    hit one memoized verdict table instead of rebuilding union graphs.
    ``updated`` and ``round_nodes`` may be node sets or int bitmasks over
    the problem's canonical node↔bit index.
    """
    if oracle is None:
        oracle = oracle_for(problem, tuple(properties))
    else:
        oracle.ensure_matches(problem, tuple(properties))
    return oracle.round_is_safe(updated, round_nodes)


# ---------------------------------------------------------------------------
# the verdict layer
# ---------------------------------------------------------------------------

class _MaskSearch:
    """Shared state of one exact-search invocation: the oracle behind a
    monotonicity-memoizing verdict layer.

    Verdicts are cached under single-int ``(state << k) | round`` keys,
    and per state the maximal known-safe rounds settle the candidates
    inside them (round safety is monotone in the in-flight set).  A
    minimal-unsafe list would settle nothing: no strict superset of a
    round found unsafe at a state is asked after it, as (1) candidates
    are subsets of the safe mask in decreasing numeric order, so every
    superset of a round comes before it; (2) the forced-chain rule, (3)
    ``proven`` (keyed by the successor state) and (4) a nogood's core
    only ever skip a round (pinned by ``tests/core/test_unsafe_rounds.py``).

    :meth:`known` is the one read that never morphs; :meth:`round_ok` is
    that read, then the morph.  :meth:`cores` is what the enumeration
    jumps by: it never reads a round holding a learned nogood's core.
    """

    def __init__(self, problem, properties, round_filter):
        self.problem = problem
        self.k = len(problem.canonical_updates)
        self.full = (1 << self.k) - 1
        self.oracle = oracle_for(problem, properties)
        self.nogoods = self.oracle._nogoods  # read in place; a search only appends
        self.round_filter = round_filter
        self._verdicts: dict[int, bool] = {}
        self._safe_masks: dict[int, int] = {}
        self._max_safe: dict[int, list[int]] = {}

    def round_ok(self, state: int, rmask: int) -> bool:
        verdict = self.known(state, rmask)
        if verdict is None:
            verdict = self.oracle.judge_round(state, rmask)
            self._file(state, rmask, verdict)
        return verdict

    def known(self, state: int, rmask: int) -> bool | None:
        """The verdict known without a morph -- this search's cache, a
        known-safe round around ``rmask``, then the oracle's
        :meth:`~repro.core.oracle.SafetyOracle.known_verdict` -- or ``None``."""
        key = (state << self.k) | rmask
        verdicts = self._verdicts
        cached = verdicts.get(key)
        if cached is not None:
            return cached
        for safe in self._max_safe.get(state, ()):
            if rmask & safe == rmask:
                verdicts[key] = True
                return True
        verdict = self.oracle.known_verdict(state, rmask)
        if verdict is not None:
            self._file(state, rmask, verdict)
        return verdict

    def cores(self, state: int, safe_mask: int, start: int = 0) -> list[int]:
        """``need_new & ~state`` of each nogood from index ``start`` on that
        can match a round of ``safe_mask`` nodes at ``state`` (the oracle's
        ``_nogood_match`` rule): it matches iff the round holds this *core*."""
        reach = state | safe_mask
        return [
            need_new & ~state
            for need_new, need_old in islice(self.nogoods, start, None)
            if not need_old & state and not need_new & ~reach
        ]

    def _file(self, state: int, rmask: int, verdict: bool) -> None:
        self._verdicts[(state << self.k) | rmask] = verdict
        if verdict:
            known = self._max_safe.setdefault(state, [])
            known[:] = [s for s in known if s & rmask != s]
            known.append(rmask)

    def safe_singleton_mask(self, state: int) -> int:
        """OR of the pending bits that are safe to flip alone from ``state``
        (a round holding an unsafe one is unsafe by monotonicity), from
        one :meth:`~repro.core.oracle.SafetyOracle.safe_singletons` pass.
        The safe singletons are filed where :meth:`round_ok` looks first,
        and the mask is kept per state: deepening re-expands a state once
        per limit.  The whole mask is the enumeration's first candidate.
        """
        mask = self._safe_masks.get(state)
        if mask is not None:
            return mask
        mask = self.oracle.safe_singletons(state)
        verdicts = self._verdicts
        base = state << self.k
        scan = mask
        while scan:
            low = scan & -scan
            verdicts[base | low] = True
            scan ^= low
        self._safe_masks[state] = mask
        return mask

    def filter_ok(self, state: int, rmask: int) -> bool:
        if self.round_filter is None:
            return True
        nodes = self.oracle.nodes_of
        return self.round_filter(set(nodes(state)), set(nodes(rmask)))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def minimal_round_schedule(
    problem: UpdateProblem,
    properties: tuple[Property, ...],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_rounds: int | None = None,
    round_filter=None,
    search: str | None = None,
    node_budget: int | None = None,
    time_limit_s: float | None = None,
    nogood_limit: int | None = None,
) -> UpdateSchedule:
    """Find a schedule with the *fewest* rounds satisfying ``properties``.

    Only the required updates (installs and switches) are scheduled; stale
    deletions can always be appended afterwards.  A problem with nothing
    to schedule gets a valid zero-round schedule (so feasibility probes
    report no-op instances as trivially feasible).  ``round_filter``
    (called as ``round_filter(updated_set, round_set)``) can veto
    transitions -- the hook behind the forced-order analysis in
    :mod:`repro.core.analysis`.  Raises :class:`InfeasibleUpdateError`
    when no schedule of any length exists (or none within ``max_rounds``),
    and :class:`VerificationError` when the instance exceeds ``max_nodes``.

    ``node_budget`` (search-node cap), ``time_limit_s`` (wall-clock
    deadline, polled inside the search) and ``nogood_limit``
    (learned-pattern table size, 0 disables learning) make the search
    *anytime*: on an exhausted budget it raises
    :class:`~repro.errors.ExactSearchBudgetError` carrying the proven
    lower/upper round interval.

    ``search`` (``"iddfs"`` or ``"bnb"``) is named only by the perf
    ledger, to compare the two; left ``None``, the mode follows from the
    instance (module docstring).  Both return optimal schedules.
    """
    properties = tuple(properties)
    todo = problem.required_updates
    if not todo:
        return UpdateSchedule(
            problem,
            [],
            algorithm="optimal",
            metadata={"properties": [p.value for p in properties]},
        )
    if len(todo) > max_nodes:
        raise VerificationError(
            f"instance has {len(todo)} updates; exact search capped at {max_nodes}"
        )
    budgeted = (
        node_budget is not None
        or time_limit_s is not None
        or nogood_limit is not None
    )
    if search is None:
        deepening = len(todo) <= DEEPENING_MAX_UPDATES and not budgeted
        search = "iddfs" if deepening else "bnb"
    elif search not in ("iddfs", "bnb"):
        raise VerificationError(
            f"unknown search mode {search!r}; accepted: 'iddfs', 'bnb'"
        )
    elif search == "iddfs" and budgeted:
        raise VerificationError(
            "node_budget/time_limit_s/nogood_limit are branch-and-bound "
            "knobs; leave search unset (or pass 'bnb') to use them"
        )
    return search_mask_bnb(
        _MaskSearch(problem, properties, round_filter),
        properties,
        max_rounds,
        bounds=search == "bnb",
        node_budget=node_budget,
        time_limit_s=time_limit_s,
        nogood_limit=nogood_limit,
    )


def minimal_round_count(problem, properties, **options) -> int:
    """Round count of the optimal schedule; ``options`` are those of
    :func:`minimal_round_schedule`."""
    return minimal_round_schedule(problem, properties, **options).n_rounds


def is_feasible(problem, properties, **options) -> bool:
    """Does *any* round schedule satisfy ``properties``?  ``options`` are
    those of :func:`minimal_round_schedule` (a no-op instance is feasible
    via its zero-round schedule; a budget overrun still raises)."""
    try:
        minimal_round_schedule(problem, properties, **options)
    except InfeasibleUpdateError:
        return False
    return True
