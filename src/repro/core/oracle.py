"""Incremental safety oracle: delta-maintained union graphs.

Every scheduling decision in this reproduction reduces to a *round-safety
query*: "if the nodes in ``updated`` are already NEW and the nodes in
``round_nodes`` flip now, does some transient configuration violate a
property?".  The from-scratch reference (:func:`repro.core.verify.verify_round`
over a fresh :class:`~repro.core.transient.UnionGraph`) answers one query
by rebuilding the union graph and searching all of it -- O(n) a query,
which a many-round scheduler or an exact search asks thousands of times.
The :class:`SafetyOracle` answers the same queries over **one persistent
union graph per problem**:

* ``apply`` / ``commit`` / ``revert`` move a single node between its
  OLD / FLEXIBLE / NEW phases in O(degree) edge operations;
* strong loop freedom is maintained **incrementally** with Pearce--Kelly
  topological-order maintenance (Pearce & Kelly, *A dynamic topological
  sort algorithm for directed acyclic graphs*, JEA 2006) over sparse
  labels: an edge that respects the current order costs O(1), one against
  it a two-way search that ends with its smaller side and relabels only
  that side into a gap -- the node being flipped, not the chain settled
  behind it, on the many-round families (no bound is claimed in general).
  A removal burst that leaves many refused edges to re-test (committing
  one of Peacock's wide rounds) re-ranks the whole graph with one stable
  topological sort instead of re-inserting them edge by edge;
* the source's reachability frontiers, plain and around the waypoint
  (for WPE, BLACKHOLE and the RLF pre-filter), are extended incrementally
  on edge insertions and recomputed lazily only when an edge removal
  actually touched them;
* full ``(updated, round_nodes)`` verdicts are memoized per oracle with
  hit/miss counters, which :func:`aggregate_stats` sums for ``GET
  /metrics`` at scrape time (the memo's size cap, :data:`DEFAULT_MEMO_LIMIT`,
  and the exact RLF search's state cap, :data:`repro.core.verify.RLF_BUDGET`,
  are module constants, the same for every oracle); queries and memo keys are plain-int
  bitmasks over the problem's canonical node↔bit index
  (:attr:`~repro.core.problem.UpdateProblem.node_bit`), so the exact
  search can probe millions of rounds without building a single
  frozenset;
* "which pending nodes may flip alone from this state" -- what the exact
  search asks at every expansion -- is one read-only pass
  (:meth:`SafetyOracle.safe_singletons`): with a single flexible node
  every other node has exactly one out-edge, so all n verdicts fall out
  of one walk table of that functional graph and the persistent graph,
  the memo and the nogoods are not touched.

Every oracle counts its own work (:class:`OracleStats`).  Two readings
exist: a request reads the deltas of the oracles *it* was handed
(:class:`RequestScope`, opened by :func:`repro.core.api.execute_request`
and fed by :func:`oracle_for`; exact per thread, O(oracles touched)), and
:func:`aggregate_stats` is the process-wide total over shared oracles,
live and dead, that ``GET /metrics`` renders -- monotone, O(live oracles),
on no request path.

Ownership runs one way: a problem's cache (:func:`problem_cache`) owns its
oracles and :mod:`repro.core.bnb`'s precedence analyses, which hold the
problem weakly or not at all, so all of them die at reference count zero
when the problem's last user drops it.

The oracle returns **boolean verdicts only** -- plus, for a rejected
:meth:`SafetyOracle.try_apply_watched` probe, the set of nodes whose commit
could lift the rejection (what :mod:`repro.core.packing` watches).
Witness-producing verification (and the exhaustive configuration oracle)
deliberately stays in :mod:`repro.core.verify`, which doubles as the
reference implementation the oracle is cross-checked against in the
equivalence test suite.
"""

from __future__ import annotations

import threading
import weakref
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.errors import UpdateModelError, VerificationBudgetError, VerificationError
from repro.core import verify as _verify
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.topology.graph import NodeId

#: Node phases, kept as plain ints on the hot path.
_OLD, _FLEX, _NEW = 0, 1, 2
_INF = float("inf")

#: How a walk over single out-edges ends (:meth:`SafetyOracle.safe_singletons`);
#: 0 is "not walked yet".
_ON_PATH, _ENDS_AT_DESTINATION, _ENDS_IN_DROP, _ENDS_IN_CYCLE = -1, 1, 2, 3

#: Entries above which a verdict memo is dropped wholesale (backstop only;
#: read at query time, so a test can patch it).
DEFAULT_MEMO_LIMIT = 1_000_000

#: Default capacity of the learned-nogood table (see
#: :meth:`SafetyOracle.enable_nogood_learning`).  Matching a nogood costs
#: two int ops, so a few hundred patterns stay cheaper than one morph.
DEFAULT_NOGOOD_LIMIT = 512


@dataclass
class OracleStats:
    """Operation counters of one :class:`SafetyOracle`."""

    memo_hits: int = 0
    memo_misses: int = 0
    applies: int = 0
    reverts: int = 0
    commits: int = 0
    pk_reorders: int = 0
    pk_cycles: int = 0
    frontier_extensions: int = 0
    frontier_recomputes: int = 0
    rlf_fallbacks: int = 0
    memo_evictions: int = 0
    nogood_hits: int = 0
    nogoods_learned: int = 0
    #: candidates a round packer passed over because their last rejection
    #: still stood (:mod:`repro.core.packing`): over a packing run,
    #: ``applies + nogood_hits + watch_skips`` is the number of probes the
    #: probe-everything loop would have made
    watch_skips: int = 0

    def as_dict(self) -> dict:
        # every field is an int: a copy of the instance dict is the dump
        return dict(vars(self))

    def add(self, other: "OracleStats") -> None:
        mine = vars(self)
        for name, value in vars(other).items():
            mine[name] += value


class SafetyOracle:
    """Stateful round-safety oracle over one persistent union graph.

    The oracle always represents the union graph of *some* round
    ``(updated, in_flight)``: nodes in ``updated`` are NEW, nodes in
    ``in_flight`` are FLEXIBLE (both rules possible), everything else is
    OLD.  Two usage styles:

    * **delta walks** (schedulers): :meth:`reset` to a round base, then
      :meth:`try_apply` candidate nodes one at a time -- an unsafe
      candidate is reverted automatically -- and :meth:`commit_round` when
      the round is final;
    * **memoized queries** (exact search, analysis): :meth:`round_is_safe`
      morphs the graph to the queried round via the smallest delta and
      caches the verdict; :meth:`safe_singletons` answers all one-node
      rounds of a state at once without morphing anything.

    ``properties`` is fixed per oracle; use :func:`oracle_for` to share
    oracles (and their memo tables) per ``(problem, properties)``.
    """

    def __init__(
        self,
        problem: UpdateProblem,
        properties: tuple[Property, ...],
        exact_rlf: bool = True,
    ) -> None:
        properties = tuple(properties)
        if not properties:
            raise VerificationError("a safety oracle needs at least one property")
        if Property.WPE in properties and problem.waypoint is None:
            raise VerificationError("cannot check WPE without a waypoint")
        self._problem = weakref.ref(problem)  # its cache owns this oracle
        self._name = problem.name
        self.properties = properties
        self.exact_rlf = exact_rlf
        self.stats = OracleStats()

        self._source = problem.source
        self._destination = problem.destination
        self._waypoint = problem.waypoint
        self._old_next = problem.old_next
        self._new_next = problem.new_next
        self._forwarding = problem.forwarding_nodes

        # --- canonical node<->bit index (shared with the exact search) --
        # Duck-typed problems without a node_bit table get the same
        # convention derived on the fly: required updates on the low bits
        # in canonical order, remaining forwarding nodes after them -- so
        # int masks mean the same thing to every caller.
        node_bit = getattr(problem, "node_bit", None)
        if node_bit is None:
            order = list(getattr(problem, "canonical_updates", ()))
            order.extend(sorted(self._forwarding - set(order), key=repr))
            node_bit = {node: index for index, node in enumerate(order)}
        self._node_bit: dict[NodeId, int] = node_bit
        self._bit_node: tuple = tuple(node_bit)  # built in bit order
        self._width = len(self._bit_node)

        # --- persistent union graph -----------------------------------
        self._state: dict[NodeId, int] = dict.fromkeys(self._forwarding, _OLD)
        self._succ: dict[NodeId, set] = {n: set() for n in problem.nodes}
        self._pred: dict[NodeId, set] = {n: set() for n in problem.nodes}
        self._new_mask = 0
        self._flex_mask = 0
        self._drop: set = set()  # nodes whose current phase may drop packets

        # --- Pearce-Kelly topological order over the non-blocked edges
        # (skipped entirely when no property ever consults acyclicity)
        self._needs_pk = Property.SLF in properties or Property.RLF in properties
        # (labels: the old path's ranks; each run of new-only nodes evenly
        # spaced just below the old-path node it rejoins, so an install
        # chain runs along the order; nodes on neither path last, by repr.
        # A reorder writes floats into the gaps.)
        old_path = problem.old_path.nodes
        order = dict(zip(old_path, range(len(old_path))))
        run: list = []
        for node in problem.new_path.nodes:
            if node in order:
                for back, member in enumerate(reversed(run), 1):
                    order[member] = order[node] - back / (len(run) + 1)
                run = []
            else:
                run.append(node)
        for node in sorted(problem.nodes.difference(order), key=repr):
            order[node] = len(order)
        self._ord: dict[NodeId, float] = order
        self._relabelled = 0  # labels written by reorders (work-bound tests)
        self._blocked: set[tuple[NodeId, NodeId]] = set()
        self._blocked_tails: set[NodeId] = set()  # {u for (u, _) in _blocked}
        self._blocked_stale = False

        # --- lazily maintained reachability frontiers (None = stale) --
        self._fwd: set | None = None        # reachable from the source
        self._fwd_avoid: set | None = None  # ... avoiding the waypoint

        # The all-OLD base graph: an edge along the order is written in
        # directly, any other goes through the order check (a multi-policy
        # view's old table also holds the other policies' old rules).
        for node in self._forwarding:
            target = self._old_next[node]
            if target is None:
                self._drop.add(node)
            elif order[node] < order[target]:
                self._succ[node].add(target)
                self._pred[target].add(node)
            else:
                self._add_edge(node, target)

        self._memo: dict[int, bool] = {}
        self._walk_tables: tuple | None = None  # see safe_singletons

        # --- conflict-learned nogoods (cross-state unsafe patterns) ---
        # Each entry is an int pair ``(need_new, need_old)`` distilled
        # from one concrete violation witness: the violating walk / cycle
        # exists in *any* union graph where every ``need_new`` node has
        # its new rule available (NEW or FLEX) and every ``need_old``
        # node still has its old rule (not committed NEW).  Unlike the
        # per-key verdict memo, one pattern settles unsafe verdicts
        # across every state that re-creates the witness.
        self._nogoods: list[tuple[int, int]] = []
        self._nogood_seen: set[tuple[int, int]] = set()
        self._learn_nogoods = False
        self.nogood_limit = 0
        self._rlf_witness: list | None = None

    # ------------------------------------------------------------------
    # per-node phase semantics
    # ------------------------------------------------------------------
    def _set_state(self, node: NodeId, state: int) -> None:
        try:
            current = self._state[node]
        except KeyError:
            raise UpdateModelError(
                f"{node!r} is not a forwarding node of {self.problem!r}"
            ) from None
        if current == state:
            return
        # OLD offers the old rule, NEW the new one, FLEX both: a transition
        # drops at most one edge and then adds at most one.
        old, new = self._old_next[node], self._new_next[node]
        if old != new:
            if state == _NEW:
                if old is not None:
                    self._remove_edge(node, old)
            elif state == _OLD and new is not None:
                self._remove_edge(node, new)
            if current == _NEW:
                if old is not None:
                    self._add_edge(node, old)
            elif current == _OLD and new is not None:
                self._add_edge(node, new)
            if old is None or new is None:
                # it may drop in every phase but the one with only its rule
                if state != (_NEW if old is None else _OLD):
                    self._drop.add(node)
                else:
                    self._drop.discard(node)
        bit = 1 << self._node_bit[node]
        if current == _NEW:
            self._new_mask &= ~bit
        elif current == _FLEX:
            self._flex_mask &= ~bit
        if state == _NEW:
            self._new_mask |= bit
        elif state == _FLEX:
            self._flex_mask |= bit
        self._state[node] = state

    # ------------------------------------------------------------------
    # edge maintenance: Pearce-Kelly order + reachability frontiers
    # ------------------------------------------------------------------
    def _add_edge(self, u: NodeId, v: NodeId) -> None:
        self._succ[u].add(v)
        self._pred[v].add(u)
        if self._needs_pk and self._ord[u] >= self._ord[v]:
            self._pk_insert(u, v)  # (an edge along the order needs no call)
        fwd = self._fwd
        if fwd is not None:
            if u in fwd and v not in fwd:
                self.stats.frontier_extensions += 1
                self._extend_frontier(fwd, v, None)
        fwd_avoid = self._fwd_avoid
        if fwd_avoid is not None:
            if u in fwd_avoid and v not in fwd_avoid and v != self._waypoint:
                self.stats.frontier_extensions += 1
                self._extend_frontier(fwd_avoid, v, self._waypoint)

    def _remove_edge(self, u: NodeId, v: NodeId) -> None:
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        if (u, v) in self._blocked:
            # A blocked edge never entered the PK graph: nothing to restore.
            self._unblock(u, v)
        elif self._blocked:
            # Removing a live edge may unblock previously refused ones;
            # defer the re-validation until a query actually consults the
            # blocked set, so a burst of removals pays once.
            self._blocked_stale = True
        if self._fwd is not None and u in self._fwd:
            self._fwd = None
        if self._fwd_avoid is not None and u in self._fwd_avoid:
            self._fwd_avoid = None

    def _validate_blocked(self) -> None:
        """Re-test stale blocked edges after live-edge removals.

        Restores the invariant that every blocked edge currently closes a
        cycle, which the SLF/RLF verdicts rely on.  A wide stale set (at
        least a quarter as many edges as the graph has nodes) first tries
        :meth:`_rerank`: if the whole graph sorts, no edge closes a cycle
        and the set empties at once.  Otherwise each candidate is removed
        from the blocked set only for its *own* insertion attempt: the
        other pending edges must stay excluded from the PK traversals
        (they carry no order guarantee), otherwise a missed cycle corrupts
        the topological order.  One pass suffices -- an edge re-blocked
        here closed a cycle against PK-valid edges only, and later
        insertions add paths, never remove them.
        """
        if not self._blocked_stale:
            return
        self._blocked_stale = False
        blocked = self._blocked
        if 4 * len(blocked) >= len(self._ord) and self._rerank():
            # emptied one by one as the per-edge pass would: clear() reorders
            # later members, and which edge of a cycle stays blocked follows
            for members in (blocked, self._blocked_tails):
                for member in list(members):
                    members.discard(member)
            return
        for a, b in list(blocked):
            self._unblock(a, b)
            if b in self._succ[a]:
                self._pk_insert(a, b)

    def _rerank(self) -> bool:
        """Relabel every node with its rank in one topological sort of the
        union graph, blocked edges included (Kahn's algorithm; the heap holds
        positions in label order, never nodes, which need not compare).
        Returns ``False`` and leaves the labels alone if a cycle remains."""
        order, succ, pred = self._ord, self._succ, self._pred
        nodes = sorted(order, key=order.__getitem__)
        position = {node: at for at, node in enumerate(nodes)}
        waiting = [len(pred[node]) for node in nodes]
        ready = [at for at, count in enumerate(waiting) if not count]  # a heap
        ranked = []
        while ready:
            node = nodes[heappop(ready)]
            ranked.append(node)
            for at in map(position.__getitem__, succ[node]):
                waiting[at] -= 1
                if not waiting[at]:
                    heappush(ready, at)
        if len(ranked) < len(order):
            return False
        for rank, node in enumerate(ranked):
            order[node] = rank
        self._relabelled += len(ranked)
        self.stats.pk_reorders += 1
        return True

    def _unblock(self, u: NodeId, v: NodeId) -> None:
        blocked = self._blocked
        blocked.discard((u, v))
        if not any((u, target) in blocked for target in self._succ[u]):
            self._blocked_tails.discard(u)

    def _pk_insert(self, u: NodeId, v: NodeId) -> None:
        """Record edge ``u -> v`` in the incremental topological order.

        If the edge closes a cycle it is *blocked* (kept out of the PK
        graph, remembered in ``self._blocked``); the union graph is
        acyclic exactly when no edge is blocked.

        An edge against the order starts two searches in lockstep: forward
        from ``v`` over labels up to ``u``'s, backward from ``u`` over
        labels down to ``v``'s.  Where they meet there is a path ``v ~> u``:
        a cycle.  Otherwise the side that runs dry first is all of ``v``'s
        descendants below ``u`` (or all of ``u``'s ancestors above ``v``),
        so moving just that side past the other endpoint repairs the order
        -- the cost follows the smaller side, not the affected region.
        """
        order = self._ord
        lower, upper = order[v], order[u]
        if upper < lower:
            return
        blocked = self._blocked
        succ, pred = self._succ, self._pred
        forward, backward = [v], [u]
        fseen, bseen = {v}, {u}
        at = 0
        while at < len(forward) and at < len(backward):
            node = forward[at]
            for target in succ[node]:
                if blocked and (node, target) in blocked:
                    continue
                if target in bseen:
                    break
                if target not in fseen and order[target] <= upper:
                    fseen.add(target)
                    forward.append(target)
            else:
                node = backward[at]
                for origin in pred[node]:
                    if blocked and (origin, node) in blocked:
                        continue
                    if origin in fseen:
                        break
                    if origin not in bseen and order[origin] >= lower:
                        bseen.add(origin)
                        backward.append(origin)
                else:
                    at += 1
                    continue
            blocked.add((u, v))
            self._blocked_tails.add(u)
            self.stats.pk_cycles += 1
            return
        # The moved side lands between the other endpoint and the nearest
        # label beyond it that one of its own neighbours holds.
        if at == len(forward):
            moved, low = forward, upper
            beyond = [order[t] for n in moved for t in succ[n] if order[t] > upper]
            high = min(beyond, default=_INF)
        else:
            moved, high = backward, lower
            beyond = [order[o] for n in moved for o in pred[n] if order[o] < lower]
            low = max(beyond, default=high - len(moved) - 1)
        moved.sort(key=order.__getitem__)
        count = len(moved)
        step = 1.0 if high == _INF else (high - low) / (count + 1)
        labels = [low + step * rank for rank in range(1, count + 1)]
        if not all(a < b for a, b in zip([low, *labels], [*labels, high])):
            # the gap is out of float precision: back to ranks, and retry
            for rank, node in enumerate(sorted(order, key=order.__getitem__)):
                order[node] = rank
            self._relabelled += len(order)
            return self._pk_insert(u, v)
        for node, label in zip(moved, labels):
            order[node] = label
        self._relabelled += count
        self.stats.pk_reorders += 1

    def _extend_frontier(
        self, frontier: set, start: NodeId, avoid: NodeId | None
    ) -> set:
        """Grow ``frontier`` by ``start`` and every node it reaches
        without entering ``avoid`` or a known member; returns it."""
        succ = self._succ
        frontier.add(start)
        stack = [start]
        while stack:
            for target in succ[stack.pop()]:
                if target not in frontier and target != avoid:
                    frontier.add(target)
                    stack.append(target)
        return frontier

    def _compute_frontier(self, start: NodeId, avoid: NodeId | None) -> set:
        self.stats.frontier_recomputes += 1
        if start == avoid:
            return set()
        return self._extend_frontier(set(), start, avoid)

    # ------------------------------------------------------------------
    # reachability frontiers (public read access)
    # ------------------------------------------------------------------
    def forward_frontier(self) -> frozenset:
        """Nodes reachable from the source in the current union graph."""
        return frozenset(self._fwd_set())

    def reaches(self, node: NodeId) -> bool:
        """Does the source reach ``node`` in the current union graph?"""
        return node in self._fwd_set()

    def _fwd_set(self) -> set:
        if self._fwd is None:
            self._fwd = self._compute_frontier(self._source, None)
        return self._fwd

    def _fwd_avoid_set(self) -> set:
        if self._fwd_avoid is None:
            self._fwd_avoid = self._compute_frontier(
                self._source, self._waypoint
            )
        return self._fwd_avoid

    # ------------------------------------------------------------------
    # delta operations
    # ------------------------------------------------------------------
    def reset(self, updated=(), in_flight=()) -> None:
        """Morph the graph to the round base ``(updated, in_flight)``."""
        self._morph(self.mask_of(updated), self.mask_of(in_flight))

    def apply(self, node: NodeId) -> None:
        """Make ``node`` flexible (its update is in flight this round)."""
        self.stats.applies += 1
        self._set_state(node, _FLEX)

    def revert(self, node: NodeId) -> None:
        """Take ``node`` back out of the round (back to OLD)."""
        self.stats.reverts += 1
        self._set_state(node, _OLD)

    def commit(self, node: NodeId) -> None:
        """Settle ``node`` as updated (NEW): its round has completed."""
        self.stats.commits += 1
        self._set_state(node, _NEW)

    def commit_round(self) -> None:
        """Settle every currently flexible node as updated."""
        for node in self.nodes_of(self._flex_mask):
            self.commit(node)

    def try_apply(self, node: NodeId) -> bool:
        """Apply ``node``; keep it when the round stays safe, else revert.

        The scheduler building block: returns the safety verdict and
        leaves the graph in the corresponding state.  A candidate whose
        round matches a learned nogood is rejected without touching the
        graph at all -- this is how greedy schedulers profit from the
        patterns the exact search learns.
        """
        return self._probe(node, want_watch=False)[0]

    def try_apply_watched(self, node: NodeId) -> "tuple[bool, int | None]":
        """:meth:`try_apply` that also says how long a rejection lasts.

        Returns ``(kept, watch)``.  For a rejected candidate ``watch`` is
        the ``need_old`` mask of the violation witness (or of the nogood
        that matched -- the nogood *is* the witness): as long as edges are
        only added (more nodes applied) and none of the ``watch`` nodes is
        committed NEW, the same witness exists, so probing ``node`` again
        is rejected again.  ``None`` means the rejection carries no
        witness (conservative RLF) and holds for the current state only.
        """
        return self._probe(node, want_watch=True)

    def _probe(self, node: NodeId, want_watch: bool) -> "tuple[bool, int | None]":
        bit_index = self._node_bit.get(node)
        if bit_index is not None and self._nogoods:
            nogood = self._nogood_match(
                self._new_mask, self._flex_mask | (1 << bit_index)
            )
            if nogood is not None:
                self.stats.nogood_hits += 1
                return False, nogood[1]
        self.apply(node)
        if self.current_round_safe():
            return True, None
        pattern = self._violation_pattern() if want_watch else None
        self.revert(node)
        return False, None if pattern is None else pattern[1]

    def updated_nodes(self) -> frozenset:
        return self.nodes_of(self._new_mask)

    def in_flight_nodes(self) -> frozenset:
        return self.nodes_of(self._flex_mask)

    def mask_of(self, nodes) -> int:
        """Encode nodes as a bitmask (ints pass through unchanged).

        Nodes outside the forwarding set (the destination, foreign ids)
        are silently ignored, matching the set-based morph semantics.
        """
        if type(nodes) is int:
            return nodes
        bits = self._node_bit
        mask = 0
        for node in nodes:
            bit = bits.get(node)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def nodes_of(self, mask: int) -> frozenset:
        """Decode a bitmask back into the frozenset of its nodes."""
        order = self._bit_node
        nodes = []
        if mask.bit_count() > 32:
            # peeling a bit off a wide int costs O(width): find the ones in its
            # digits, lowest first (a few bits peel faster; crossover 32-64)
            digits = bin(mask)[:1:-1]
            at = digits.find("1")
            while at >= 0:
                nodes.append(order[at])
                at = digits.find("1", at + 1)
            return frozenset(nodes)
        while mask:
            low = mask & -mask
            nodes.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(nodes)

    def _morph(self, target_new: int, target_flex: int) -> None:
        touched = (self._new_mask ^ target_new) | (self._flex_mask ^ target_flex)
        states = self._state
        set_state = self._set_state
        order = self._bit_node
        while touched:
            low = touched & -touched
            touched ^= low
            node = order[low.bit_length() - 1]
            if low & target_flex:
                state = _FLEX
            elif low & target_new:
                state = _NEW
            else:
                state = _OLD
            if states[node] != state:
                set_state(node, state)

    # ------------------------------------------------------------------
    # safety evaluation
    # ------------------------------------------------------------------
    def current_round_safe(self) -> bool:
        """Are all properties satisfied by the current union graph?"""
        for prop in self.properties:
            if prop is Property.SLF:
                self._validate_blocked()
                if self._blocked:
                    return False
            elif prop is Property.BLACKHOLE:
                if not self._drop.isdisjoint(self._fwd_set()):
                    return False
            elif prop is Property.WPE:
                if self._destination in self._fwd_avoid_set():
                    return False
            elif prop is Property.RLF:
                if not self._rlf_safe():
                    return False
            else:  # pragma: no cover - closed enum
                raise VerificationError(f"unknown property {prop!r}")
        return True

    def round_is_safe(self, updated, round_nodes) -> bool:
        """Memoized verdict for the round ``(updated, round_nodes)``.

        Both arguments may be node iterables or plain-int bitmasks over
        the canonical node↔bit index; the memo key is a single int either
        way, so mask-native callers (the exact search) and set-based
        callers share one verdict table.  What :meth:`known_verdict`
        reads is answered without touching the graph; only a round it is
        silent on morphs (:meth:`judge_round`).
        """
        updated_mask = updated if type(updated) is int else self.mask_of(updated)
        round_mask = (
            round_nodes if type(round_nodes) is int else self.mask_of(round_nodes)
        )
        verdict = self.known_verdict(updated_mask, round_mask)
        if verdict is None:
            verdict = self.judge_round(updated_mask, round_mask)
        return verdict

    def known_verdict(self, updated_mask: int, round_mask: int) -> "bool | None":
        """The verdict already known without a morph -- the memo's, or
        unsafe by a learned nogood -- and ``None`` when neither speaks."""
        key = (updated_mask << self._width) | round_mask
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if self._nogoods and self._nogood_match(updated_mask, round_mask):
            self.stats.nogood_hits += 1
            self._remember(key, False)
            return False
        return None

    def judge_round(self, updated_mask: int, round_mask: int) -> bool:
        """Morph to the round and judge it (a memo miss): the second half
        of :meth:`round_is_safe`, for a caller whose
        :meth:`known_verdict` came back ``None``."""
        self.stats.memo_misses += 1
        self._morph(updated_mask, round_mask)
        verdict = self.current_round_safe()
        if not verdict and self._learn_nogoods:
            self._learn_nogood()
        self._remember((updated_mask << self._width) | round_mask, verdict)
        return verdict

    def _remember(self, key: int, verdict: bool) -> None:
        if len(self._memo) >= DEFAULT_MEMO_LIMIT:
            self._memo.clear()
            self.stats.memo_evictions += 1
        self._memo[key] = verdict

    def safe_singletons(self, updated_mask: int) -> int:
        """Mask of the pending required updates that may flip *alone*.

        Bit ``v`` is set iff ``round_is_safe(updated_mask, 1 << v)``,
        for every install / switch ``v`` outside ``updated_mask`` -- all
        of them from one O(n) pass, read-only: the persistent graph, the
        memo, the nogoods and the counters stay as they are.

        With ``v`` the only flexible node, every other node has exactly
        one out-edge (its new rule inside ``updated_mask``, its old one
        outside), so the union graph is a functional graph plus the one
        edge ``v -> t``, ``t`` the new next hop of ``v``.  One memoized
        walk gives every node the mask of nodes downstream of it and how
        its walk ends; each property is then a few bit tests per ``v``:
        SLF fails iff ``t`` leads back to ``v``; RLF (exact and
        conservative coincide for one flexible node) iff that happens on
        the source walk, or ``t``'s walk ends in a cycle there;
        BLACKHOLE iff ``v`` is on the source walk and ``t``'s walk ends
        in a drop; WPE iff ``v`` is on the source walk before the
        waypoint and ``t`` reaches the destination without it.  A base
        state that already violates a property answers 0 (verdicts are
        monotone in the in-flight set).
        """
        tables = self._walk_tables
        if tables is None:
            tables = self._walk_tables = self._build_walk_tables()
        old, new, flippable, source, waypoint, slf, rlf, blackhole, wpe = tables
        n = self._width
        succ = old.copy()
        scan = updated_mask
        while scan:
            low = scan & -scan
            scan ^= low
            index = low.bit_length() - 1
            succ[index] = new[index]
        # down[i]: nodes strictly downstream of i (a cycle's nodes are
        # downstream of each other and of themselves); end[i]: how the
        # walk from i ends.  Index n is the destination.
        down = [0] * (n + 1)
        end = [0] * n
        end.append(_ENDS_AT_DESTINATION)
        cyclic = False
        for start in range(n):
            if end[start]:
                continue
            path = []
            at = start
            while at >= 0 and not end[at]:
                end[at] = _ON_PATH
                path.append(at)
                at = succ[at]
            if at < 0:
                kind, below = _ENDS_IN_DROP, 0
            elif end[at] == _ON_PATH:
                cyclic = True
                kind, below = _ENDS_IN_CYCLE, 0
                first = path.index(at)
                cycle = path[first:]
                del path[first:]
                for member in cycle:
                    below |= 1 << member
                for member in cycle:
                    down[member], end[member] = below, kind
            else:
                kind, below = end[at], down[at] | 1 << at
            for member in reversed(path):
                down[member], end[member] = below, kind
                below |= 1 << member
        source_end = end[source]
        on_walk = down[source] | 1 << source
        if (
            (slf and cyclic)
            or (rlf and source_end == _ENDS_IN_CYCLE)
            or (blackhole and source_end == _ENDS_IN_DROP)
        ):
            return 0
        before_waypoint = 0
        if wpe:
            if source_end == _ENDS_AT_DESTINATION and not on_walk >> waypoint & 1:
                return 0
            # walked, not derived from the masks: the source walk may run
            # into a cycle through the waypoint
            at = source
            while 0 <= at < n and at != waypoint and not before_waypoint >> at & 1:
                before_waypoint |= 1 << at
                at = succ[at]
        safe = 0
        scan = flippable & ~updated_mask
        while scan:
            low = scan & -scan
            scan ^= low
            target = new[low.bit_length() - 1]
            reach = down[target] | 1 << target
            if low & reach and (slf or (rlf and low & on_walk)):
                continue
            if low & on_walk:
                target_end = end[target]
                if (rlf and target_end == _ENDS_IN_CYCLE) or (
                    blackhole and target_end == _ENDS_IN_DROP
                ):
                    continue
            if (
                low & before_waypoint
                and target != waypoint
                and end[target] == _ENDS_AT_DESTINATION
                and not reach >> waypoint & 1
            ):
                continue
            safe |= low
        return safe

    def _build_walk_tables(self) -> tuple:
        """Int-indexed next-hop tables for :meth:`safe_singletons` (built
        on its first call: the delta-walk schedulers never need them).

        Positions follow ``_bit_node``, the destination -- the one hop
        without a bit -- is one extra index and a missing rule is -1.
        """
        index, n = self._node_bit, self._width
        old, new = [], []
        flippable = 0  # the required updates: installs and switches
        for position, node in enumerate(self._bit_node):
            was, now = self._old_next[node], self._new_next[node]
            old.append(-1 if was is None else index.get(was, n))
            new.append(-1 if now is None else index.get(now, n))
            if now is not None and now != was:
                flippable |= 1 << position
        properties = self.properties
        return (
            old,
            new,
            flippable,
            index[self._source],
            index.get(self._waypoint, -1),
            Property.SLF in properties,
            Property.RLF in properties,
            Property.BLACKHOLE in properties,
            Property.WPE in properties,
        )

    def _rlf_safe(self) -> bool:
        # Fast path: the PK structure already knows the graph is acyclic,
        # and without any union cycle there is nothing to reach.
        self._rlf_witness = None
        self._validate_blocked()
        if not self._blocked:
            return True
        # Every union cycle runs through a blocked edge (the non-blocked
        # subgraph is acyclic by PK invariant), and the source-reachable
        # set is successor-closed -- so a cycle lies inside it if and only
        # if some blocked edge's tail is reachable.
        if self._fwd_set().isdisjoint(self._blocked_tails):
            return True
        self.stats.rlf_fallbacks += 1
        if not self.exact_rlf:
            return False  # conservative: a reachable union cycle counts
        return not self._rlf_trajectory_loops()

    def _rlf_trajectory_loops(self) -> bool:
        """Branching trajectory search (bool twin of the verify.py witness).

        Walk from the source, fixing each flexible node's behaviour on
        first visit; revisiting any node on the walk is a realizable
        source-reachable loop.  The search is confined to the *danger
        zone* -- nodes that can still reach a blocked-edge tail: every
        union cycle passes through a blocked edge, so every node of a
        realizable looping walk (prefix included) can reach one, and
        branches leaving the zone can never close a loop.
        """
        pred = self._pred
        danger: set = set()
        stack: list[NodeId] = []
        for u, _ in self._blocked:
            if u not in danger:
                danger.add(u)
                stack.append(u)
        while stack:
            node = stack.pop()
            for origin in pred[node]:
                if origin not in danger:
                    danger.add(origin)
                    stack.append(origin)
        source, destination = self._source, self._destination
        if source not in danger:
            return False
        succ = self._succ
        budget = _verify.RLF_BUDGET
        states_explored = 0
        walk: list[NodeId] = [source]
        on_walk = {source}
        pending: list[list[NodeId]] = [
            [t for t in succ[source] if t in danger]
        ]
        while pending:
            states_explored += 1
            if states_explored > budget:
                raise VerificationBudgetError(
                    f"relaxed-loop-freedom search exceeded {budget} states"
                )
            options = pending[-1]
            if not options:
                pending.pop()
                on_walk.discard(walk.pop())
                continue
            target = options.pop()
            if target in on_walk:
                # the full trajectory (prefix included) is the witness:
                # one behaviour per node, so it generalizes to a nogood
                self._rlf_witness = list(zip(walk, walk[1:]))
                self._rlf_witness.append((walk[-1], target))
                return True
            if target == destination:
                continue
            walk.append(target)
            on_walk.add(target)
            pending.append([t for t in succ[target] if t in danger])
        return False

    # ------------------------------------------------------------------
    # conflict-learned nogoods
    # ------------------------------------------------------------------
    # A nogood ``(need_new, need_old)`` is distilled from one concrete
    # violation witness (an SLF cycle, a WPE waypoint-bypass path, a
    # reachable blackhole, an RLF trajectory loop): the witness used the
    # *new* rule of every node in ``need_new`` and the *old* rule of
    # every node in ``need_old``.  The same witness therefore exists --
    # and the round is therefore unsafe -- in every query
    # ``(updated, round)`` where
    #
    # * every ``need_new`` node has its new rule available, i.e. is NEW
    #   or FLEX: ``need_new & ~(updated | round) == 0``; and
    # * every ``need_old`` node still has its old rule, i.e. is not
    #   committed NEW: ``need_old & updated & ~round == 0``
    #
    # (FLEX wins overlaps, matching :meth:`_morph`).  This generalizes
    # the exact search's per-state monotonicity memo across states: one
    # learned pattern settles round candidates for *every* state that
    # re-creates the witness, and :meth:`try_apply` consults the table
    # too, so greedy schedulers skip doomed candidates without touching
    # the graph.  Patterns are certificates, never heuristics -- a match
    # implies a genuine violation for this oracle's property set.

    def enable_nogood_learning(self, limit: int = DEFAULT_NOGOOD_LIMIT) -> None:
        """Start distilling nogoods from unsafe verdicts (table <= limit)."""
        self._learn_nogoods = True
        self.nogood_limit = max(int(limit), len(self._nogoods))

    def disable_nogood_learning(self) -> None:
        """Stop learning *and* drop the table.

        Clearing is deliberate: the table is shared per problem, so a
        nogood-free cross-check (``nogood_limit=0``) must not silently
        keep matching patterns a previous search learned.
        """
        self._learn_nogoods = False
        self.nogood_limit = 0
        self.clear_nogoods()

    def nogoods(self) -> tuple:
        """The learned ``(need_new, need_old)`` patterns (read-only view)."""
        return tuple(self._nogoods)

    def clear_nogoods(self) -> None:
        """Drop every learned pattern."""
        self._nogoods.clear()
        self._nogood_seen.clear()

    def _nogood_match(
        self, updated_mask: int, round_mask: int
    ) -> "tuple[int, int] | None":
        """The first learned pattern the round re-creates, if any."""
        available = updated_mask | round_mask
        committed = updated_mask & ~round_mask
        for need_new, need_old in self._nogoods:
            if need_new & ~available == 0 and need_old & committed == 0:
                return need_new, need_old
        return None

    def _learn_nogood(self) -> None:
        """Distill the current (violating) union graph into a pattern."""
        if len(self._nogoods) >= self.nogood_limit:
            return
        pattern = self._violation_pattern()
        if pattern is None or pattern in self._nogood_seen:
            return
        self._nogoods.append(pattern)
        self._nogood_seen.add(pattern)
        self.stats.nogoods_learned += 1
        from repro.obs import trace as obs

        if obs.tracing_enabled():
            obs.event(
                "oracle.nogood_learned",
                problem=self._name,
                nogoods=len(self._nogoods),
            )

    def _violation_pattern(self) -> "tuple[int, int] | None":
        """Witness pattern of the first violated property (same order as
        :meth:`current_round_safe`); ``None`` when no witness generalizes
        (e.g. conservative RLF verdicts, which carry no trajectory)."""
        for prop in self.properties:
            if prop is Property.SLF:
                self._validate_blocked()
                if self._blocked:
                    return self._cycle_pattern()
            elif prop is Property.BLACKHOLE:
                reachable_drops = self._drop & self._fwd_set()
                if reachable_drops:
                    return self._blackhole_pattern(
                        min(reachable_drops, key=repr)
                    )
            elif prop is Property.WPE:
                if self._destination in self._fwd_avoid_set():
                    return self._pattern_edges(self._path_edges_to(
                        self._destination, avoid=self._waypoint
                    ))
            elif prop is Property.RLF:
                if self._rlf_witness is not None:
                    return self._pattern_edges(self._rlf_witness)
        return None

    def _pattern_edges(self, edges) -> "tuple[int, int] | None":
        """Classify witness edges into the ``(need_new, need_old)`` pair
        (``None`` for no edges: the witness was not found)."""
        if edges is None:
            return None
        need_new = need_old = 0
        bits = self._node_bit
        for x, y in edges:
            bit_index = bits.get(x)
            if bit_index is None:
                return None
            old, new = self._old_next.get(x), self._new_next.get(x)
            if old == y:
                if new == y:
                    continue  # both rules agree: edge exists in every phase
                need_old |= 1 << bit_index
            elif new == y:
                need_new |= 1 << bit_index
            else:
                return None  # edge of unknown origin: refuse to generalize
        return need_new, need_old

    def _cycle_pattern(self) -> "tuple[int, int] | None":
        """A union cycle: one blocked edge plus its non-blocked return path."""
        blocked = self._blocked
        succ = self._succ
        for u0, v0 in blocked:
            parent: dict = {v0: None}
            stack = [v0]
            while stack and u0 not in parent:
                node = stack.pop()
                for target in succ[node]:
                    if target in parent or (node, target) in blocked:
                        continue
                    parent[target] = node
                    if target == u0:
                        break
                    stack.append(target)
            if u0 not in parent:
                continue  # stale invariant: try another blocked edge
            edges = [(u0, v0)]
            node = u0
            while parent[node] is not None:
                edges.append((parent[node], node))
                node = parent[node]
            return self._pattern_edges(edges)
        return None

    def _path_edges_to(self, goal: NodeId, avoid) -> "list | None":
        """BFS parent-chain edges from the source to ``goal``."""
        source = self._source
        if source == avoid or goal == avoid:
            return None
        if source == goal:
            return []
        succ = self._succ
        parent: dict = {source: None}
        queue = [source]
        for node in queue:
            for target in succ[node]:
                if target in parent or target == avoid:
                    continue
                parent[target] = node
                if target == goal:
                    edges = []
                    while parent[target] is not None:
                        edges.append((parent[target], target))
                        target = parent[target]
                    edges.reverse()
                    return edges
                queue.append(target)
        return None

    def _blackhole_pattern(self, node: NodeId) -> "tuple[int, int] | None":
        """A reachable drop: the path to ``node`` plus its dropping rule."""
        pattern = self._pattern_edges(self._path_edges_to(node, avoid=None))
        if pattern is None:
            return None
        need_new, need_old = pattern
        bit_index = self._node_bit.get(node)
        if bit_index is None:
            return None
        old, new = self._old_next.get(node), self._new_next.get(node)
        state = self._state.get(node)
        if old is None and new is None:
            pass  # drops in every phase: the path alone is the certificate
        elif old is None and state != _NEW:
            need_old |= 1 << bit_index
        elif new is None and state != _OLD:
            need_new |= 1 << bit_index
        else:
            return None  # node is not actually dropping: stale witness
        return need_new, need_old

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def problem(self) -> UpdateProblem | None:
        """The problem, while something besides this oracle keeps it."""
        return self._problem()

    def ensure_matches(
        self,
        problem: UpdateProblem,
        properties: tuple[Property, ...] | None = None,
        exact_rlf: bool | None = None,
    ) -> None:
        """Guard for externally supplied oracles.

        A scheduler handed an oracle built for another problem, property
        set or RLF mode (the state cap is one constant for all) would emit
        wrong-mode or unsafe schedules; this makes the mismatch an error.
        """
        if self.problem is not problem:
            raise VerificationError(
                f"oracle was built for {self.problem!r}, not {problem!r}"
            )
        if properties is not None and frozenset(properties) != frozenset(
            self.properties
        ):
            raise VerificationError(
                f"oracle checks {[p.value for p in self.properties]}, "
                f"caller needs {[p.value for p in properties]}"
            )
        if Property.RLF in self.properties and exact_rlf not in (None, self.exact_rlf):
            raise VerificationError(
                f"oracle has exact_rlf={self.exact_rlf}, caller needs {exact_rlf}"
            )

    def memo_size(self) -> int:
        return len(self._memo)

    def clear_memo(self) -> None:
        self._memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        props = "+".join(p.value.split("-")[0] for p in self.properties)
        return (
            f"SafetyOracle({self._name}, {props}, "
            f"updated={self._new_mask.bit_count()}, "
            f"in_flight={self._flex_mask.bit_count()}, "
            f"memo={len(self._memo)})"
        )


# ---------------------------------------------------------------------------
# per-problem oracle registry
# ---------------------------------------------------------------------------

#: Attribute under which a problem carries its own cache: its oracles and
#: the forced-precedence analyses of :mod:`repro.core.bnb`.  It is their
#: one owner and neither holds the problem strongly, so the problem and
#: all of it die at reference count zero when the caller drops it.
_CACHE_ATTR = "_safety_oracle_cache"

#: Weak views over everything handed out, for stats and test isolation:
#: the problems carrying a cache, and per shared oracle a weak reference
#: mapped to its counters (which hold no reference back to the oracle).
_PROBLEMS: "weakref.WeakSet[UpdateProblem]" = weakref.WeakSet()
_LIVE: "dict[weakref.ref[SafetyOracle], OracleStats]" = {}

#: Counters of shared oracles that have died, so that :func:`aggregate_stats`
#: never decreases.  They move from ``_LIVE`` only under the lock: a dying
#: oracle's callback moves its own if it gets the lock without waiting, and
#: else (a sum on another thread, or one the collector interrupted on this
#: one) leaves them under its dead reference for the next sum to move.
_RETIRED = OracleStats()
_RETIRED_LOCK = threading.Lock()


def _retire(reference: "weakref.ref[SafetyOracle]") -> None:
    if _RETIRED_LOCK.acquire(blocking=False):
        try:
            _RETIRED.add(_LIVE.pop(reference, OracleStats()))
        finally:
            _RETIRED_LOCK.release()


#: The innermost open :class:`RequestScope` of this thread / task.
_SCOPE: "ContextVar[RequestScope | None]" = ContextVar(
    "repro_oracle_request_scope", default=None
)


class RequestScope:
    """Counter deltas of the oracles handed out while the scope is open.

    :func:`repro.core.api.execute_request` opens one per request.  Inside
    it :func:`oracle_for` (and the request, for an explicit ``oracle``)
    :meth:`note` each oracle with its counters at first hand-out, and
    :meth:`deltas` sums what those oracles have counted since.  The scope
    lives in a context variable, so every thread has its own, the cost is
    O(oracles the request touched), and what happens to unrelated oracles
    (other requests' work, garbage collection) cannot show.  A scope
    opened inside another folds its oracles into the outer one on exit.
    """

    def __init__(self) -> None:
        #: oracle (by identity) -> its counters at first hand-out
        self._noted: dict[SafetyOracle, dict[str, int]] = {}

    def __enter__(self) -> "RequestScope":
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _SCOPE.reset(self._token)
        outer = _SCOPE.get()
        if outer is not None:
            for oracle, before in self._noted.items():
                outer._noted.setdefault(oracle, before)

    def note(self, oracle: SafetyOracle) -> None:
        if oracle not in self._noted:
            self._noted[oracle] = oracle.stats.as_dict()

    def deltas(self) -> dict[str, int]:
        """Summed counter increases since hand-out (zero ones omitted)."""
        total: dict[str, int] = {}
        for oracle, before in self._noted.items():
            for name, value in vars(oracle.stats).items():
                if value != before[name]:
                    total[name] = total.get(name, 0) + value - before[name]
        return total


def problem_cache(problem: UpdateProblem) -> dict:
    """The per-problem cache :func:`clear_registry` drops.

    :func:`oracle_for` keys it by ``(properties, exact_rlf)``;
    :func:`repro.core.bnb.precedence_for` by ``("precedence", properties)``.
    """
    cache = getattr(problem, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(problem, _CACHE_ATTR, cache)
        _PROBLEMS.add(problem)
    return cache


def oracle_for(
    problem: UpdateProblem,
    properties: tuple[Property, ...],
    exact_rlf: bool = True,
) -> SafetyOracle:
    """Shared :class:`SafetyOracle` per ``(problem, properties, mode)``.

    Sharing is what makes memoization pay across call sites: the analysis
    helpers, the exact search and repeated scheduler invocations on the
    same problem all hit one verdict table.  The property set is compared
    order-insensitively (a verdict is a conjunction).  Oracles die with
    their problem, so long-running controllers do not leak.
    """
    cache = problem_cache(problem)
    props = frozenset(properties)
    if Property.RLF not in props:
        # the RLF mode cannot affect verdicts: normalize the cache key so
        # callers in either mode share one oracle and memo table
        exact_rlf = True
    key = (props, exact_rlf)
    oracle = cache.get(key)
    if oracle is None:
        from repro.obs import trace as obs

        with obs.span(
            "oracle.build",
            problem=problem.name,
            properties=",".join(sorted(p.value for p in props)),
        ):
            oracle = SafetyOracle(problem, properties, exact_rlf=exact_rlf)
        cache[key] = oracle
        _LIVE[weakref.ref(oracle, _retire)] = oracle.stats
    scope = _SCOPE.get()
    if scope is not None:
        scope.note(oracle)
    return oracle


def clear_registry() -> None:
    """Forget all shared oracles (cold-start benchmarks, test isolation).

    The per-problem cache also holds :mod:`repro.core.bnb`'s forced-
    precedence analyses, so a cleared problem is genuinely cold for
    benchmark purposes.  Zeroes the retired counters too:
    :func:`aggregate_stats` starts again from 0.
    """
    global _RETIRED
    with _RETIRED_LOCK:
        _LIVE.clear()  # a dropped weak reference never calls back
        _RETIRED = OracleStats()
    for problem in list(_PROBLEMS):
        try:
            delattr(problem, _CACHE_ATTR)
        except AttributeError:
            pass
    _PROBLEMS.clear()


def aggregate_stats() -> OracleStats:
    """Summed counters over all shared oracles, live and dead.

    Monotone between two :func:`clear_registry` calls (``GET /metrics``
    renders it as Prometheus counters).  O(live oracles): no request path
    calls it -- per-request figures come from :class:`RequestScope`.
    """
    total = OracleStats()
    with _RETIRED_LOCK:
        for reference, stats in _LIVE.copy().items():  # others may add meanwhile
            if reference() is None:  # its callback found the lock taken
                del _LIVE[reference]
                _RETIRED.add(stats)
            else:
                total.add(stats)
        total.add(_RETIRED)
    return total
