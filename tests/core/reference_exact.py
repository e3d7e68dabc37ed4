"""From-scratch exact search, singleton scan, precedence certificates and
joint packer, as differential references.

Until the exact engines were folded into one DFS these lived in ``src/``
as ``minimal_round_schedule(engine="sets", use_oracle=False)`` and
``greedy_joint_schedule(use_oracle=False)``.  They share nothing with the
production search: states are ``frozenset``s, the walk is breadth-first,
and every verdict rebuilds the union graph through
:func:`~repro.core.optimal.round_is_safe_reference` (or
:func:`~repro.core.multipolicy.verify_joint_round`) -- no oracle, no
memo, no certificates, no bounds.  That independence is the point; do
not optimise them.

Two more references left ``src/`` when the exact search learned to
judge every pending singleton in one oracle pass and to derive the
precedence certificates from one fixpoint per node:
:func:`reference_safe_singletons` is the per-bit ``round_is_safe`` scan
``_MaskSearch.safe_singleton_mask`` used to run, and
:func:`reference_precedence` the pair-wise analysis that rebuilt a choice
table and a least fixpoint from scratch for every ordered pair.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from repro.core.bnb import _mixed_blocks
from repro.core.multipolicy import verify_joint_round
from repro.core.optimal import round_is_safe_reference
from repro.core.problem import RuleState, UpdateKind
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property
from repro.errors import InfeasibleUpdateError

#: Fixpoint counter start that no run of decrements brings to zero.
_DEAD = 1 << 30


def reference_minimal_schedule(
    problem, properties, max_rounds=None, round_filter=None
) -> UpdateSchedule:
    """Fewest-round schedule by breadth-first search over node sets.

    Candidate rounds are tried by ascending size, then in canonical node
    order, so the first schedule reaching the goal has the fewest rounds.
    Raises :class:`InfeasibleUpdateError` when none exists (within
    ``max_rounds``).
    """
    properties = tuple(properties)
    rounds = _bfs_rounds(problem, properties, max_rounds, round_filter)
    if rounds is None:
        raise InfeasibleUpdateError(
            f"no schedule satisfies {[p.value for p in properties]}"
            + (f" within {max_rounds} rounds" if max_rounds is not None else "")
        )
    return UpdateSchedule(problem, rounds, algorithm="reference-optimal")


def _bfs_rounds(problem, properties, max_rounds, round_filter):
    todo = frozenset(problem.required_updates)
    start: frozenset = frozenset()
    if not todo:
        return []
    parents: dict = {start: None}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        if max_rounds is not None and depth > max_rounds:
            return None
        next_frontier: list[frozenset] = []
        for state in frontier:
            pending = [n for n in problem.canonical_updates if n not in state]
            for size in range(1, len(pending) + 1):
                for combo in itertools.combinations(pending, size):
                    round_nodes = frozenset(combo)
                    successor = state | round_nodes
                    if successor in parents:
                        continue
                    if round_filter is not None and not round_filter(
                        set(state), set(round_nodes)
                    ):
                        continue
                    if not round_is_safe_reference(
                        problem, set(state), set(round_nodes), properties
                    ):
                        continue
                    parents[successor] = (state, round_nodes)
                    if successor == todo:
                        return _unwind(parents, successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return None


def _unwind(parents: dict, state: frozenset) -> list[frozenset]:
    rounds: list[frozenset] = []
    while parents[state] is not None:
        state, round_nodes = parents[state]
        rounds.append(round_nodes)
    rounds.reverse()
    return rounds


def reference_round_count(problem, properties, **options) -> int | None:
    """Optimal round count per the reference, ``None`` when infeasible."""
    try:
        return reference_minimal_schedule(problem, properties, **options).n_rounds
    except InfeasibleUpdateError:
        return None


def replay_is_safe(problem, schedule, properties) -> bool:
    """Is every round safe from the state its predecessors leave, and do
    the rounds flip exactly the required updates?"""
    updated: set = set()
    for round_nodes in schedule.rounds:
        if not round_is_safe_reference(
            problem, updated, set(round_nodes), tuple(properties)
        ):
            return False
        updated |= round_nodes
    return updated == set(problem.required_updates)


def reference_safe_singletons(round_ok, state: int, pending: int) -> int:
    """The ``pending`` bits safe to flip alone from ``state``, one
    question per bit -- the scan ``_MaskSearch.safe_singleton_mask`` ran
    at every expansion.  ``round_ok(state, round_mask)`` is the judge:
    ``SafetyOracle.round_is_safe`` (morph the graph, check, memoize) or
    ``_MaskSearch.round_ok`` in front of it."""
    mask = 0
    scan = pending & ~state
    while scan:
        low = scan & -scan
        if round_ok(state, low):
            mask |= low
        scan ^= low
    return mask


# ---------------------------------------------------------------------------
# pair-wise precedence certificates: one table + one fixpoint per (u, v)
# ---------------------------------------------------------------------------

def _choice_table(problem, required, flex=None, pinned=None) -> dict:
    """Per-node successor choices under adversarial old/new assignment.

    Models the union graph of an arbitrary state ``S'`` probed by the
    singleton query ``{flex}``: every *required* node other than
    ``pinned``/``flex`` may sit on either rule (the adversary picks),
    ``pinned`` is frozen on its old rule, ``flex`` is in flight (both
    rules live), and non-required nodes never move off their old rule
    (deletions are appended after the exact search).  ``None`` next hops
    (installs before install, deletes after delete) are kept: a walk
    dies there, which must count as an adversarial escape.
    """
    old_next, new_next = problem.old_next, problem.new_next
    table: dict = {}
    for node in problem.forwarding_nodes:
        if node == flex:
            options = {old_next.get(node), new_next.get(node)}
        elif node == pinned or node not in required:
            options = {old_next.get(node)}
        else:
            options = {old_next.get(node), new_next.get(node)}
        table[node] = tuple(options)
    return table


def _reach_fixpoint(choices, target, any_nodes=frozenset(), avoid=None):
    """Nodes from which ``target`` is reached under *every* assignment.

    Least fixpoint seeded by ``target``: an ordinary node joins when
    **all** of its choices already force the target (the adversary picks
    the edge), a node in ``any_nodes`` when **some** choice does (its
    union-graph presence offers every edge at once).  ``avoid`` never
    joins and is never traversed.  An ordinary node with a ``None``
    choice (the walk can die there) or an ``avoid`` choice can never be
    forced, and neither can any cycle the adversary can trap a walk in
    -- which is exactly what makes membership a certificate.
    """
    if target == avoid:
        return frozenset()
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
    forced = {target}
    queue = [target]
    while queue:
        reached = queue.pop()
        for node in preds.get(reached, ()):
            if node in forced:
                continue
            if node in any_nodes:
                forced.add(node)
                queue.append(node)
                continue
            remaining[node] -= 1
            if remaining[node] == 0:
                forced.add(node)
                queue.append(node)
    return forced


def _slf_blocks(problem, required, u, pinned=None) -> bool:
    """Does flipping ``u`` alone *always* close a loop while ``pinned``
    (when given) still runs its old rule?

    True when ``new_next[u]`` force-reaches ``u``: every adversarial
    assignment walks the new edge of ``u`` back into ``u``, so the union
    graph of every such singleton query contains a cycle.
    """
    new_target = problem.new_next.get(u)
    if new_target is None:
        return False
    choices = _choice_table(problem, required, pinned=pinned)
    return new_target in _reach_fixpoint(choices, target=u)


def _wpe_blocks(problem, required, u, pinned=None) -> bool:
    """Does flipping ``u`` *always* open a waypoint bypass while
    ``pinned`` (when given) still runs its old rule?

    AND-OR certificate: ``u`` is in flight (both rules in the union
    graph, so *one* forcing choice suffices), everyone else adversarial.
    Truth means every reachable configuration's union graph routes
    source→destination around the waypoint.
    """
    waypoint = problem.waypoint
    if waypoint is None:
        return False
    choices = _choice_table(problem, required, flex=u, pinned=pinned)
    forced = _reach_fixpoint(
        choices,
        target=problem.destination,
        any_nodes=frozenset((u,)),
        avoid=waypoint,
    )
    return problem.source in forced


def reference_precedence(problem, properties) -> tuple[str | None, tuple]:
    """``(infeasible_reason, forced_pairs)`` of
    :class:`~repro.core.bnb.PrecedenceAnalysis`, with a choice table and
    a least fixpoint built from scratch for every node and for every
    ordered pair (``forced_pairs`` is empty when a node alone is stuck:
    the analysis stops there)."""
    properties = tuple(properties)
    names = [p.value for p in properties]
    canonical = tuple(problem.canonical_updates)
    required = frozenset(problem.required_updates)
    use_slf = Property.SLF in properties
    use_wpe = Property.WPE in properties and problem.waypoint is not None
    before: dict = {u: [] for u in canonical}  # u -> the v forced ahead of it
    for u in canonical:
        if (
            (use_slf and _slf_blocks(problem, required, u))
            or (use_wpe and _wpe_blocks(problem, required, u))
            or (use_slf and use_wpe and _mixed_blocks(problem, required, u))
        ):
            return (
                f"update {u!r} can never be applied: every reachable "
                f"configuration violates {names}"
            ), ()
        for v in canonical:
            if v != u and (
                (use_slf and _slf_blocks(problem, required, u, pinned=v))
                or (use_wpe and _wpe_blocks(problem, required, u, pinned=v))
            ):
                before[u].append(v)
    pairs = tuple((v, u) for v in canonical for u in canonical if v in before[u])
    # peel nodes nothing left is forced ahead of; what stays is cyclic
    left = set(canonical)
    while free := {u for u in left if not left.intersection(before[u])}:
        left -= free
    if left:
        return (
            f"forced-order cycle among {sorted(map(repr, left))}: no "
            f"ordering can satisfy {names}"
        ), pairs
    return None, pairs


def reference_joint_schedule(joint, properties, include_cleanup=True) -> list[set]:
    """Rounds of the greedy joint packer with every probe from scratch.

    Same candidate walk as
    :func:`~repro.core.multipolicy.greedy_joint_schedule` (installs first,
    then maximal rounds over the pending nodes in ``repr`` order), with
    :func:`verify_joint_round` deciding each probe.
    """
    properties = tuple(properties)

    def unsafe(updated: set, candidate: set) -> bool:
        return bool(verify_joint_round(joint, updated, candidate, properties))

    install = {
        node
        for node in joint.required_updates
        if joint.kind(node) is UpdateKind.INSTALL
    }
    rounds: list[set] = []
    updated: set = set()
    if install:
        if unsafe(updated, install):
            raise InfeasibleUpdateError("installing new-only rules is unsafe")
        rounds.append(install)
        updated |= install
    pending = sorted(joint.required_updates - install, key=repr)
    while pending:
        round_nodes: set = set()
        kept: list = []
        for node in pending:
            if unsafe(updated, round_nodes | {node}):
                kept.append(node)
            else:
                round_nodes = round_nodes | {node}
        if not round_nodes:
            raise InfeasibleUpdateError(f"policies deadlock on {kept!r}")
        rounds.append(round_nodes)
        updated |= round_nodes
        pending = kept
    if include_cleanup and joint.cleanup_updates:
        rounds.append(set(joint.cleanup_updates))
    return rounds


#: Transition filters the differential and golden runs are repeated
#: under (a filtered search has no greedy witness to lean on, so it must
#: establish feasibility itself).
FILTERS = {
    "sequential": lambda updated, round_nodes: len(round_nodes) == 1,
    "pairs": lambda updated, round_nodes: len(round_nodes) <= 2,
}


class TwinFlows:
    """Duck-typed multi-source problem with interchangeable parallel sources.

    Three roots ``s``, ``a``, ``b`` are rewired from ``u`` onto ``v``
    while the shared tail segment ``u -> v`` reverses to ``v -> u``.
    ``a`` and ``b`` share their old/new next hops and are nobody's next
    hop -- a shape no single path-pair UpdateProblem has (every required
    update but the source is its new-path predecessor's next hop).  The
    exact search, the safe-singletons pass and the precedence fixpoints
    are held to their references on it, so nothing in them may assume
    one path pair.
    """

    name = "twin-flows"
    waypoint = None

    def __init__(self):
        self.source = "s"
        self.destination = "d"
        self.old_next = {"s": "u", "a": "u", "b": "u", "u": "v", "v": "d"}
        self.new_next = {"s": "v", "a": "v", "b": "v", "u": "d", "v": "u"}
        self.forwarding_nodes = frozenset(self.old_next)
        self.nodes = self.forwarding_nodes | {"d"}
        self.required_updates = frozenset(
            node
            for node in self.forwarding_nodes
            if self.old_next[node] != self.new_next[node]
        )
        self.canonical_updates = tuple(sorted(self.required_updates))
        self.cleanup_updates = frozenset()
        self.all_updates = self.required_updates
        self.old_path = SimpleNamespace(nodes=("s", "u", "v", "d"))
        self.new_path = SimpleNamespace(nodes=("s", "a", "b", "v", "u", "d"))

    def kind(self, node):
        if node in self.required_updates:
            return UpdateKind.SWITCH
        return UpdateKind.NOOP

    def next_hop(self, node, state):
        table = self.old_next if state is RuleState.OLD else self.new_next
        return table.get(node)
