"""The exact search, and the certificates that bound and short-cut it.

:func:`search_mask_bnb` is the one exact search of the code base: a
depth-limited DFS over bitmask states, deepened one round limit at a
time (:func:`repro.core.optimal.minimal_round_schedule` is its only
caller).  Plain deepening re-expands the state space once per limit,
which is exactly what infeasibility proofs (every limit fails) and
forced-linear instances (the optimum sits at the top of the range)
maximize.  The first two things below are on in both modes; the
``bounds`` mode adds the third:

* an **admissible rounds-remaining lower bound** from the dependency
  structure of the instance.  :class:`PrecedenceAnalysis` derives a
  *sound* subset of the forced-order relation of
  :func:`repro.core.analysis.is_order_forced` in polynomial time: ``v``
  must be committed strictly before ``u`` whenever flipping ``u`` alone
  is provably unsafe in *every* configuration that still has ``v`` on
  its old rule.  Two certificates establish that universally quantified
  statement by least fixpoints (no state enumeration) -- one run per
  certificate and ``u``, continued on copies for the ``v`` whose pin can
  change it (:func:`_pin_forces`), not one per pair:

  - **SLF** -- if every adversarial old/new assignment of the other
    nodes forces a walk from ``new_next[u]`` back to ``u``, the new rule
    of ``u`` always closes a loop;
  - **WPE** -- if under every assignment the union graph contains a
    source→destination path avoiding the waypoint while ``u`` is
    in flight (an AND-OR reachability fixpoint: ``u`` contributes both
    rules, everyone else is adversarial), flipping ``u`` always bypasses
    the waypoint.

  Because any safe round containing ``u`` makes the singleton ``{u}``
  safe by monotonicity, each certificate forbids ``u`` from flipping
  before ``v`` is *committed* -- so the longest chain in the precedence
  graph is a true lower bound on the remaining rounds
  (:func:`rounds_lower_bound`), and a precedence *cycle* (or a node
  blocked with no pin at all) is an infeasibility proof that needs no
  search at all.  Deepening starts at that bound, and a state whose
  longest chain fills its rounds left tries only rounds taking every
  start of one (:meth:`PrecedenceAnalysis.chain_front`, once a state).

* **conflict-driven nogood learning** (both modes) -- every unsafe
  verdict the search triggers makes the shared
  :class:`~repro.core.oracle.SafetyOracle` distill the violation witness
  into a cross-state ``(need_new, need_old)`` pattern (see
  :mod:`repro.core.oracle`), which refutes a round at *every* state
  that re-creates it.  Per state the enumeration keeps each pattern's
  *core* (the nodes it still needs flipped) and jumps, unread, over
  every candidate holding one.  Patterns are certificates: verdicts,
  DFS order and node counts stay; only morphs and reads fall.

* **the incumbent short-cut** -- the search starts from the greedy
  witness (:func:`~repro.core.combined.combined_greedy_schedule`) as
  upper bound, returns it immediately when the lower bound already
  matches, and otherwise deepens only through the window
  ``[lower bound, incumbent - 1]``.

A state with one round left -- nearly every state a deepening pass
expands -- asks one question: is the whole pending set a safe round?
What is already known answers first, then the read-only singleton pass
(a node unsafe alone refutes it); only then does it morph.

An instance without a witness gets its feasibility settled in a
*single* pass, and a node or wall-clock budget that runs out raises
:class:`~repro.errors.ExactSearchBudgetError` with the proven
``lower``/``upper`` interval.

Reached through the scheduler registry as ``optimal:<props>``; the
``bounds`` mode is what runs above n=18 and for
``optimal:<props>?time_limit_s=2`` / ``?node_budget=...``.
"""

from __future__ import annotations

import time
from math import inf

from repro.errors import (
    ExactSearchBudgetError,
    InfeasibleUpdateError,
    UpdateModelError,
)
from repro.obs import trace as obs
from repro.core.combined import combined_greedy_schedule
from repro.core.deadline import check_deadline
from repro.core.oracle import DEFAULT_NOGOOD_LIMIT, problem_cache
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property

#: Fixpoint counter start that no run of decrements brings to zero.
_DEAD = 1 << 30

#: Node-expansion interval between ``bnb.milestone`` trace events.
_MILESTONE_EVERY = 5_000

#: Candidate rounds tried between two looks at the clock.
_DEADLINE_POLL_EVERY = 1024


# ---------------------------------------------------------------------------
# universally quantified reachability certificates
# ---------------------------------------------------------------------------

def _choice_table(problem, required) -> dict:
    """Per-node successor choices under adversarial old/new assignment.

    Models the union graph of an arbitrary state ``S'``: every
    *required* node may sit on either rule (the adversary picks; for the
    node probed by a singleton query both rules are live, the same two
    choices), and non-required nodes never move off their old rule
    (deletions are appended after the exact search).  ``None`` next hops
    (installs before install, deletes after delete) are kept: a walk
    dies there, which must count as an adversarial escape.  Freezing one
    node on its old rule is not a second table: see :func:`_pin_forces`.
    """
    old_next, new_next = problem.old_next, problem.new_next
    return {
        node: tuple({old_next.get(node), new_next.get(node)})
        if node in required
        else (old_next.get(node),)
        for node in problem.forwarding_nodes
    }


def _fixpoint_tables(choices, avoid=None) -> tuple[dict, dict]:
    """``(preds, remaining)`` that :func:`_reach_fixpoint` propagates over.

    ``remaining[node]`` counts the choices of ``node`` not yet known to
    force the target; a node with a ``None`` choice (the walk can die
    there) or an ``avoid`` choice starts at :data:`_DEAD`, and ``avoid``
    itself is left out: it never joins and is never traversed.
    """
    preds: dict = {}
    remaining: dict = {}
    for node, options in choices.items():
        if node == avoid:
            continue
        live = [
            option
            for option in options
            if option is not None and option != avoid
        ]
        remaining[node] = len(live) if len(live) == len(options) else _DEAD
        for option in live:
            preds.setdefault(option, []).append(node)
    return preds, remaining


def _reach_fixpoint(preds, remaining, forced, queue, any_node=None) -> None:
    """Grow ``forced`` to the nodes from which its seed is reached under
    *every* assignment; ``queue`` holds the members not yet propagated.

    Least fixpoint: an ordinary node joins when **all** of its choices
    already force the target (the adversary picks the edge), ``any_node``
    when **some** choice does (its union-graph presence offers every edge
    at once).  A node that starts at :data:`_DEAD` can never be forced,
    and neither can any cycle the adversary can trap a walk in -- which
    is exactly what makes membership a certificate.  ``forced`` and
    ``remaining`` are updated in place, so a later call continues where
    this one stopped.
    """
    while queue:
        reached = queue.pop()
        for node in preds.get(reached, ()):
            if node in forced:
                continue
            if node != any_node:
                remaining[node] -= 1
                if remaining[node]:
                    continue
            forced.add(node)
            queue.append(node)


def _forced_from(tables, target, any_node=None) -> tuple[set, dict]:
    """One fixpoint run seeded by ``target``: the forced set and the
    ``remaining`` counters it leaves (what :func:`_pin_forces` continues)."""
    preds, remaining = tables
    forced, remaining = {target}, dict(remaining)
    _reach_fixpoint(preds, remaining, forced, [target], any_node)
    return forced, remaining


def _pin_forces(tables, base, pinned, old_target, goal, any_node=None) -> bool:
    """Is ``goal`` forced once ``pinned`` is frozen on its old rule?

    ``base`` is the ``(forced, remaining)`` a finished fixpoint left
    behind, with ``goal`` outside it.  Freezing a node only takes the
    adversary a choice away, so the forced set can only grow, and it
    grows exactly when the frozen node itself joins: it is not forced
    yet and its old next hop is.  Then the same propagation continues
    from it on copies; otherwise the base verdict stands.
    """
    forced, remaining = base
    preds, start = tables
    if pinned in forced or pinned not in start or old_target not in forced:
        return False
    forced = {*forced, pinned}
    _reach_fixpoint(preds, dict(remaining), forced, [pinned], any_node)
    return goal in forced


def _mixed_blocks(problem, required, u) -> bool:
    """Does flipping ``u`` *always* violate WPE **or** strong loop
    freedom, whichever the adversarial assignment admits?

    The per-property certificates miss exactly the mixed clashes: some
    assignments bypass the waypoint, the others trap the forwarding walk
    in a transient loop, and neither property covers the whole space
    alone.  This certificate analyses the walk from the source directly:
    a walk that reaches the destination without visiting the waypoint is
    a WPE violation, and a walk that never terminates revisits a node,
    i.e. closes a union cycle -- an SLF violation.  So ``u`` is blocked
    whenever *no* assignment offers the walk a clean escape (reaching
    the destination after the waypoint, or dying at a missing rule).

    The walk analysis runs over ``(node, visited-waypoint)`` states.
    Post-waypoint states live inside the successor-closed union closure
    of the waypoint; enumerating concrete assignments for the required
    nodes of that (typically constant-size) closure keeps every node's
    behaviour consistent across both flags, which makes the fixpoint
    exact per assignment.  Closures with more than eight assignable
    nodes fall back to ``False`` (no claim).
    """
    waypoint = problem.waypoint
    if waypoint is None:
        return False
    old_next, new_next = problem.old_next, problem.new_next
    forwarding = problem.forwarding_nodes
    source, destination = problem.source, problem.destination

    def available(node):
        if node != u and node not in required:
            return (old_next.get(node),)
        return (old_next.get(node), new_next.get(node))

    closure = {waypoint}
    stack = [waypoint]
    while stack:
        node = stack.pop()
        if node not in forwarding:
            continue
        for nxt in available(node):
            if nxt is not None and nxt not in closure:
                closure.add(nxt)
                stack.append(nxt)
    assignable = sorted(
        (node for node in closure if node in required and node != u),
        key=repr,
    )
    if len(assignable) > 8:
        return False

    if source not in forwarding:
        return False
    start = (source, source == waypoint)
    for bits in range(1 << len(assignable)):
        fixed = {
            node: (
                new_next.get(node)
                if (bits >> position) & 1
                else old_next.get(node)
            )
            for position, node in enumerate(assignable)
        }
        # CLEAN = least fixpoint of "the walk can escape without a
        # violation": reach the destination after the waypoint, or die
        # at a missing rule / off-model node.  Per branch the outcome is
        # clean-terminal, doom-terminal (destination before the
        # waypoint), or another walk state.  The adversary (every node
        # but ``u``) is clean via ANY clean branch; at ``u`` we chase
        # the violation, so ``u`` is clean only if NO branch dooms and
        # every branch-state turns out clean.  States never joining the
        # fixpoint are doomed: their walks loop forever, i.e. close a
        # union cycle.
        need: dict = {}
        preds: dict = {}
        seeds: list = []
        for node in forwarding:
            options = (fixed[node],) if node in fixed else available(node)
            for flag in (False, True):
                state = (node, flag)
                succ_states = []
                clean_branch = False
                doom_branch = False
                for nxt in options:
                    if nxt is None:
                        clean_branch = True  # the walk dies here
                        continue
                    next_flag = flag or nxt == waypoint
                    if nxt == destination:
                        if next_flag:
                            clean_branch = True
                        else:
                            doom_branch = True  # waypoint bypassed
                        continue
                    if nxt not in forwarding:
                        clean_branch = True  # off-model sink: no claim
                        continue
                    succ_states.append((nxt, next_flag))
                if node != u:
                    if clean_branch:
                        seeds.append(state)
                        continue
                    need[state] = 1  # any clean successor is an escape
                else:
                    if doom_branch:
                        need[state] = _DEAD  # we take the violating rule
                        continue
                    need[state] = len(succ_states)
                    if not succ_states:
                        seeds.append(state)  # every rule already clean
                        continue
                for succ in succ_states:
                    preds.setdefault(succ, []).append(state)
        clean = set(seeds)
        queue = list(seeds)
        while queue:
            reached = queue.pop()
            for state in preds.get(reached, ()):
                if state in clean:
                    continue
                need[state] -= 1
                if need[state] <= 0:
                    clean.add(state)
                    queue.append(state)
        if start in clean:
            return False  # this assignment walks out cleanly: no claim
    return True


# ---------------------------------------------------------------------------
# precedence analysis: forced chains, cycles, stuck nodes
# ---------------------------------------------------------------------------

class PrecedenceAnalysis:
    """Sound forced-order structure of one ``(problem, properties)`` pair.

    ``infeasible_reason`` is non-``None`` when the certificates already
    prove that no safe round schedule exists: either some required
    update can never be applied in any reachable configuration, or the
    forced-order relation contains a cycle (the WPE-versus-loop-freedom
    clash shape).  Otherwise :meth:`chain_front` measures the forced
    chains inside a pending-node mask: the longest is an admissible
    lower bound on the rounds any safe schedule still needs, since
    chained nodes must be committed in strictly increasing rounds.  A
    node with a pending forced predecessor is never safe alone (the edge
    certifies it), so a round shortens the longest chain exactly when it
    takes every node that begins one.
    """

    def __init__(self, problem, properties: tuple[Property, ...]) -> None:
        self.properties = tuple(properties)
        canonical = tuple(problem.canonical_updates)
        required = frozenset(problem.required_updates)
        index = {node: position for position, node in enumerate(canonical)}
        self.k = len(canonical)
        self.full_mask = (1 << self.k) - 1
        use_slf = Property.SLF in self.properties
        use_wpe = (
            Property.WPE in self.properties and problem.waypoint is not None
        )
        # The mixed walk certificate covers the WPE-versus-SLF clashes
        # where each adversarial assignment violates *one* of the two.
        use_mixed = use_slf and use_wpe
        self.infeasible_reason: str | None = None
        self.canonical = canonical
        self._successors: tuple = ()
        self.edge_count = 0
        self._topo: tuple = ()
        successors: list[list[int]] = [[] for _ in canonical]
        edge_count = 0
        if use_slf or use_wpe:
            old_next, new_next = problem.old_next, problem.new_next
            choices = _choice_table(problem, required)
            slf_tables = _fixpoint_tables(choices) if use_slf else None
            wpe_tables = (
                _fixpoint_tables(choices, avoid=problem.waypoint)
                if use_wpe
                else None
            )
            for u in canonical:
                # one fixpoint per certificate and ``u``, as ``(tables,
                # (forced, remaining), goal, any_node)``: ``u`` alone is
                # stuck when the goal is forced, and stuck behind ``v``
                # when pinning ``v`` forces it
                runs = []
                if use_slf:
                    # every assignment walks the new edge of ``u`` back
                    # into ``u``: flipping it always closes a loop
                    base = _forced_from(slf_tables, u)
                    runs.append((slf_tables, base, new_next.get(u), None))
                if use_wpe:
                    # AND-OR: ``u`` is in flight (both rules in the union
                    # graph, one forcing choice suffices), everyone else
                    # adversarial; the source forced means every
                    # configuration routes around the waypoint
                    base = _forced_from(wpe_tables, problem.destination, u)
                    runs.append((wpe_tables, base, problem.source, u))
                if any(goal in base[0] for _, base, goal, _ in runs) or (
                    use_mixed and _mixed_blocks(problem, required, u)
                ):
                    self.infeasible_reason = (
                        f"update {u!r} can never be applied: every "
                        f"reachable configuration violates "
                        f"{[p.value for p in self.properties]}"
                    )
                    return
                for v in canonical:
                    if v != u and any(
                        _pin_forces(tables, base, v, old_next.get(v), goal, any_node)
                        for tables, base, goal, any_node in runs
                    ):
                        successors[index[v]].append(index[u])
                        edge_count += 1
        self._successors = tuple(tuple(targets) for targets in successors)
        self.edge_count = edge_count
        # Kahn topological order doubles as the cycle check: a forced
        # cycle admits no safe schedule at all.
        indegree = [0] * self.k
        for targets in self._successors:
            for target in targets:
                indegree[target] += 1
        order = [i for i in range(self.k) if indegree[i] == 0]
        for node in order:
            for target in self._successors[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    order.append(target)
        if len(order) < self.k:
            cyclic = sorted(
                repr(canonical[i]) for i in range(self.k) if indegree[i] > 0
            )
            self.infeasible_reason = (
                f"forced-order cycle among {cyclic}: no ordering can "
                f"satisfy {[p.value for p in self.properties]}"
            )
            return
        self._topo = tuple(reversed(order))

    def forced_pairs(self) -> tuple:
        """The certified ``(v, u)`` orders (``v`` strictly before ``u``)."""
        return tuple(
            (self.canonical[position], self.canonical[target])
            for position, targets in enumerate(self._successors)
            for target in targets
        )

    def chain_front(self, pending: int) -> tuple[int, int, int]:
        """``(length, starts, constrained)`` of the forced chains inside
        ``pending``, in one pass: the longest chain (0 when empty), the
        mask of the nodes that begin a chain of that length, and the mask
        of the pending nodes with a pending forced predecessor."""
        if not self.edge_count:
            return (1 if pending else 0), pending, 0
        depth = [0] * self.k
        length = starts = constrained = 0
        for node in self._topo:  # successors before predecessors
            if not (pending >> node) & 1:
                continue
            longest = 0
            for target in self._successors[node]:
                if (pending >> target) & 1:
                    constrained |= 1 << target
                    if depth[target] > longest:
                        longest = depth[target]
            depth[node] = longest = longest + 1
            if longest > length:
                length, starts = longest, 1 << node
            elif longest == length:
                starts |= 1 << node
        return length, starts, constrained


def precedence_for(
    problem, properties: tuple[Property, ...]
) -> PrecedenceAnalysis:
    """Shared :class:`PrecedenceAnalysis` per ``(problem, properties)``,
    kept in the oracle module's per-problem cache, which
    :func:`~repro.core.oracle.clear_registry` drops."""
    cache = problem_cache(problem)
    key = ("precedence", frozenset(properties))
    analysis = cache.get(key)
    if analysis is None:
        analysis = cache[key] = PrecedenceAnalysis(problem, tuple(properties))
    return analysis


def rounds_lower_bound(problem, properties: tuple[Property, ...]) -> int:
    """Admissible lower bound on the rounds of *any* safe schedule.

    0 for no-op instances; raises :class:`InfeasibleUpdateError` when the
    precedence certificates already prove no schedule exists.
    """
    if not problem.required_updates:
        return 0
    analysis = precedence_for(problem, tuple(properties))
    if analysis.infeasible_reason is not None:
        raise InfeasibleUpdateError(analysis.infeasible_reason)
    return max(1, analysis.chain_front(analysis.full_mask)[0])


def infeasibility_certificate(
    problem, properties: tuple[Property, ...]
) -> str | None:
    """Polynomial infeasibility proof, or ``None`` when none was found.

    ``None`` does *not* mean feasible -- only the exact search decides
    that; a non-``None`` reason is always sound.
    """
    if not problem.required_updates:
        return None
    return precedence_for(problem, tuple(properties)).infeasible_reason


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

def search_mask_bnb(
    search,
    properties: tuple[Property, ...],
    max_rounds: int | None = None,
    bounds: bool = True,
    node_budget: int | None = None,
    time_limit_s: float | None = None,
    nogood_limit: int | None = None,
) -> UpdateSchedule:
    """The exact search: one depth-limited DFS, iteratively deepened.

    ``search`` is the :class:`repro.core.optimal._MaskSearch` verdict
    layer (monotonicity memo included).  Certified-infeasible instances
    are answered from the precedence certificates; an instance without a
    greedy witness gets one unbounded pass that finds *some* schedule or
    proves there is none (dead states stay dead, so that proof is a
    single pass); then the round limit deepens from the forced-chain
    lower bound of :class:`PrecedenceAnalysis` to the best schedule
    known, and the first limit that succeeds is the optimum.  In both
    modes a round whose successor's chain no longer fits is never tried,
    and neither is one holding the core of a nogood learned before it
    comes up (:meth:`~repro.core.optimal._MaskSearch.cores`; the loop
    jumps to the next candidate without that core's lowest free bit):
    both drop only rounds without a solution, so the DFS meets the same
    first solution.  A state with one round left asks only whether its
    whole pending set is safe, and pays the singleton pass only when no
    known verdict answers that.

    With ``bounds`` (the ``"bnb"`` mode) an incumbent that meets the
    bound is returned as proven optimal without deepening to its level;
    without (the ``"iddfs"`` mode) the limit deepens through the
    witness's own level.  Both learn nogoods, unless
    ``nogood_limit=0``.  ``node_budget`` / ``time_limit_s`` turn the
    search anytime: exhausting either raises
    :class:`ExactSearchBudgetError` with the proven interval.
    """
    problem = search.problem
    properties = tuple(properties)
    full = search.full
    oracle = search.oracle
    nogoods = search.nogoods
    within = f" within {max_rounds} rounds" if max_rounds is not None else ""
    infeasible = f"no schedule satisfies {[p.value for p in properties]}{within}"

    analysis = precedence_for(problem, properties)
    if analysis.infeasible_reason is not None:
        raise InfeasibleUpdateError(analysis.infeasible_reason)
    root_lb = max(1, analysis.chain_front(full)[0])
    if max_rounds is not None and root_lb > max_rounds:
        raise InfeasibleUpdateError(
            f"{infeasible} (forced-chain lower bound is {root_lb})"
        )

    if nogood_limit == 0:
        # a nogood-free run must really be one: stop learning and
        # drop whatever a previous search left in the shared table
        oracle.disable_nogood_learning()
    else:
        oracle.enable_nogood_learning(nogood_limit or DEFAULT_NOGOOD_LIMIT)

    best: int | None = None
    incumbent: list[int] | None = None
    if search.round_filter is None:
        # a greedy witness upper-bounds the optimum (only valid when no
        # filter constrains the schedule space the witness lives in)
        try:
            witness = combined_greedy_schedule(
                problem, properties, include_cleanup=False
            )
        except (InfeasibleUpdateError, UpdateModelError):
            pass
        else:
            best = witness.n_rounds
            incumbent = [oracle.mask_of(nodes) for nodes in witness.rounds]
    if bounds and best is not None and best <= root_lb:
        return _mask_schedule(search, incumbent, properties)

    #: state -> highest remaining-round budget already proven
    #: fruitless (persists across deepening limits: larger budgets
    #: re-open the state, smaller ones are settled; ``inf`` = dead)
    proven: dict[int, float] = {}
    expanded = 0
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    def current_lower(limit: int | None) -> int:
        return root_lb if limit is None else max(root_lb, limit)

    def out_of_budget(what: str, limit: int | None) -> ExactSearchBudgetError:
        return ExactSearchBudgetError(
            f"exact search exceeded {what}",
            lower=current_lower(limit),
            upper=best,
            nodes_expanded=expanded,
        )

    def poll(limit: int | None) -> None:
        """Both clocks, read between two oracle queries: the request's
        deadline, and ``time_limit_s`` with its proven interval."""
        check_deadline()
        if deadline is not None and time.monotonic() > deadline:
            raise out_of_budget(f"{time_limit_s}s", limit)

    def dfs(state: int, remaining: float, limit: int | None) -> list[int] | None:
        """Rounds completing ``state`` within ``remaining`` rounds, or
        ``None``.  ``limit`` is the deepening level (for the interval a
        budget overrun reports); ``remaining=inf`` is the unbounded pass."""
        nonlocal expanded
        expanded += 1
        poll(limit)  # an expansion below costs ~1 ms at n = 24
        if expanded % _MILESTONE_EVERY == 0 and obs.tracing_enabled():
            obs.event("bnb.milestone", expanded=expanded,
                      lower=current_lower(limit), upper=best)
        if node_budget is not None and expanded > node_budget:
            raise out_of_budget(f"{node_budget} node expansions", limit)
        if remaining == 1:
            # one round left, one question: the whole pending set.  Known
            # verdicts first, then a node unsafe alone refutes it, then
            # the morph (a lone node is the singleton pass's own question)
            pending = full & ~state
            if not search.filter_ok(state, pending):
                return None
            ok = search.known(state, pending) if pending & (pending - 1) else None
            if ok is None:
                ok = not pending & ~search.safe_singleton_mask(state)
                ok = ok and search.round_ok(state, pending)
            return [pending] if ok else None
        safe_mask = search.safe_singleton_mask(state)
        fixed = 0
        if remaining != inf:
            # no chain outgrows the rounds left; one as long as them
            # must lose its start now (one round left: every node)
            length, starts, constrained = analysis.chain_front(full & ~state)
            if safe_mask & constrained:  # an unsound forced-order edge
                node = analysis.canonical[(safe_mask & constrained).bit_length() - 1]
                raise RuntimeError(f"{node!r} safe alone before a forced predecessor")
            if length == remaining:
                if starts & ~safe_mask:
                    return None
                fixed = starts
        free = safe_mask & ~fixed
        cores, seen = search.cores(state, safe_mask), len(nogoods)
        sub = safe_mask
        tried = 0
        while sub:
            # one node can enumerate 2^|safe_mask| subsets, so the
            # clocks are also read here and not only once per node
            tried += 1
            if not tried % _DEADLINE_POLL_EVERY:
                poll(limit)
            for core in cores:
                if sub & core == core:
                    # a nogood refutes ``sub`` and every candidate down to
                    # the next without ``core``'s lowest free bit
                    low = core & free
                    if not low:  # within ``fixed``: in every candidate
                        return None
                    low &= -low
                    sub = (sub & free & -(low << 1)) | (free & (low - 1)) | fixed
                    break
            else:
                successor = state | sub
                if (
                    proven.get(successor, -1) < remaining - 1
                    and search.filter_ok(state, sub)
                    and search.round_ok(state, sub)
                ):
                    if successor == full:
                        return [sub]
                    tail = dfs(successor, remaining - 1, limit)
                    if tail is not None:
                        return [sub, *tail]
                    proven[successor] = remaining - 1
                if len(nogoods) > seen:  # learned by the read or below it
                    cores += search.cores(state, safe_mask, seen)
                    seen = len(nogoods)
                if sub == fixed:
                    break
                sub = ((sub - fixed - 1) & free) | fixed
        return None

    try:
        if best is None:
            # No greedy witness (infeasible instance, or a filtered search
            # the witness cannot speak for): establish feasibility first.
            incumbent = dfs(0, inf, None)
            if incumbent is None:
                raise InfeasibleUpdateError(infeasible)
            best = len(incumbent)

        # with bounds an incumbent that survives every lower limit is
        # optimal as it stands; without, its own level is searched as well
        ceiling = best - 1 if bounds else best
        if max_rounds is not None:
            ceiling = min(ceiling, max_rounds)
        for limit in range(root_lb, ceiling + 1):
            rounds = dfs(0, limit, limit)
            if rounds is not None:
                return _mask_schedule(search, rounds, properties)
        if max_rounds is not None and best > max_rounds:
            raise InfeasibleUpdateError(infeasible)
        return _mask_schedule(search, incumbent, properties)
    finally:
        del dfs  # it calls itself through its own cell: break that cycle


def _mask_schedule(
    search, masks: list[int], properties: tuple[Property, ...]
) -> UpdateSchedule:
    # the oracle shares the problem's node<->bit index, so its decoder
    # is the canonical one
    return UpdateSchedule(
        search.problem,
        [search.oracle.nodes_of(mask) for mask in masks],
        algorithm="optimal",
        metadata={"properties": [p.value for p in properties]},
    )
