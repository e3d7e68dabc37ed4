"""The Peacock scheduler: relaxed-loop-free updates in few rounds.

Reconstructed from the model of Ludwig, Marcinkowski, Schmid, *Scheduling
Loop-Free Network Updates: It's Good to Relax!* (PODC'15), which the demo
paper executes.  Peacock targets **relaxed loop freedom** (RLF): transient
forwarding loops are tolerated as long as no packet *entering at the source*
can run into one.  Relaxation is what buys the round count: strong loop
freedom needs Omega(n) rounds on adversarial instances where relaxed
schedules finish in O(log n) (PODC'15); on the reversal family in
:mod:`repro.core.hardness` this implementation finishes in 3 switch rounds
while any strong-loop-free schedule needs n-3.

Structure of the emitted schedule:

1. *install* -- new-only nodes first; they receive no traffic yet.
2. *forward* -- every node whose new rule jumps forward with respect to the
   old-path order is flipped at once.  All union-graph edges then strictly
   advance along the old path, so this round is even strongly loop-free.
3. *backward-k* -- the remaining (backward) nodes are packed greedily into
   maximal rounds accepted by the exact RLF verifier.  Candidates are
   visited by decreasing new-path position; the pending node closest to the
   destination is always safe (its new edge enters a fully updated suffix
   that drains to the destination), so every round makes progress and the
   greedy terminates.
4. *cleanup* (optional) -- stale rules at old-only nodes are deleted.
"""

from __future__ import annotations

from repro.errors import UpdateModelError
from repro.core.oracle import SafetyOracle, oracle_for
from repro.core.packing import packed_schedule_rounds
from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property


def classify_forward_backward(problem: UpdateProblem) -> tuple[set, set]:
    """Split SWITCH nodes into forward and backward movers.

    A switch node's new edge may lead into a chain of new-only nodes; the
    chain exits at the first new-path successor that lies on the old path
    (the destination in the worst case).  The node is *forward* when that
    exit sits strictly later on the old path than the node itself.
    """
    old_pos = {node: i for i, node in enumerate(problem.old_path.nodes)}
    new_nodes = problem.new_path.nodes
    forward: set = set()
    backward: set = set()
    for node in problem.required_updates:
        if problem.kind(node) is not UpdateKind.SWITCH:
            continue
        exit_node = node
        # by index: a slice would copy the rest of the path per node
        for index in range(problem.new_path.index_of(node) + 1, len(new_nodes)):
            if new_nodes[index] in old_pos:
                exit_node = new_nodes[index]
                break
        if old_pos[exit_node] > old_pos[node]:
            forward.add(node)
        else:
            backward.add(node)
    return forward, backward


def peacock_schedule(
    problem: UpdateProblem,
    include_cleanup: bool = True,
    exact: bool = True,
    oracle: SafetyOracle | None = None,
) -> UpdateSchedule:
    """Compute a relaxed-loop-free round schedule for ``problem``.

    ``exact=False`` switches the per-round safety test to the conservative
    union-graph check: still sound (never emits an unsafe round) but may
    use more rounds; use it for very large instances.  The exact test
    gives up past :data:`repro.core.verify.RLF_BUDGET` trajectory states.

    Backward-round packing runs as apply/revert deltas against the shared
    :class:`SafetyOracle`: when the incremental topological order proves
    the union graph acyclic, the RLF query short-circuits without any
    reachability work.  Probes <= backward nodes + wake-ups
    (:mod:`repro.core.packing`); ``exact=False`` rejections carry no
    witness to watch and are probed again every round.
    """
    if not problem.required_updates:
        raise UpdateModelError("Peacock invoked on a problem with no rule changes")
    if oracle is None:
        oracle = oracle_for(problem, (Property.RLF,), exact_rlf=exact)
    else:
        oracle.ensure_matches(problem, (Property.RLF,), exact_rlf=exact)

    forward, _ = classify_forward_backward(problem)
    # The progress argument guarantees packing cannot stall; guard anyway
    # so a modelling bug surfaces loudly instead of looping.
    rounds, round_names = packed_schedule_rounds(
        problem,
        oracle,
        "backward",
        include_cleanup,
        stalled=lambda stuck: UpdateModelError(
            f"Peacock made no progress with pending nodes {stuck!r}"
        ),
        forward=forward,
    )
    return UpdateSchedule(
        problem,
        rounds,
        algorithm="peacock",
        metadata={
            "round_names": round_names,
            "exact": exact,
            "property": Property.RLF.value,
        },
    )
