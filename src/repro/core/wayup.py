"""The WayUp scheduler: waypoint-enforcing round-based updates.

Reconstructed from the model of Ludwig, Rost, Foucard, Schmid, *Good Network
Updates for Bad Packets* (HotNets'14) which the demo paper executes.  WayUp
guarantees **waypoint enforcement** (WPE) under arbitrary intra-round
asynchrony; it deliberately does *not* guarantee loop freedom (combining
both is not always possible and is computationally hard -- SIGMETRICS'16).

Round structure (empty rounds are skipped, ``w`` = waypoint):

1. *install* -- nodes only on the new path.  They receive no traffic while
   every old-path rule is unchanged.
2. *post-waypoint* -- ``w`` itself plus every old-path node *after* ``w``
   that is also on the new path.  Only packets that already traversed ``w``
   can reach these, so no rule installed here can un-enforce the waypoint.
3. *shared prefix* -- nodes before ``w`` on both paths (except the source).
   A packet diverted here continues over prefix nodes only, all of whose
   possible rules lead to ``w`` before ``d``.
4. *source* -- the source flips last among prefix nodes; fresh packets now
   take the fully prepared new path.
5. *late movers* -- nodes before ``w`` on the old path but after ``w`` on
   the new path.  Updating them any earlier would hand pre-waypoint packets
   a rule that jumps past ``w``; after round 4 no pre-waypoint packet can
   reach them.
6. *cleanup* (optional) -- delete stale rules at old-only nodes, which are
   unreachable by then.

The invariant behind rounds 1-2: while no node of the old prefix has been
touched, every pre-waypoint packet travels the intact old prefix and hits
``w``.  From round 3 on, every rule a pre-waypoint packet can encounter
forwards it along one of the two prefixes, both of which end at ``w``.
"""

from __future__ import annotations

from repro.errors import UpdateModelError
from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.schedule import UpdateSchedule

#: Human-readable names of WayUp's round classes, in emission order.
ROUND_NAMES = (
    "install",
    "post-waypoint",
    "shared-prefix",
    "source",
    "late-movers",
    "cleanup",
)


def wayup_schedule(
    problem: UpdateProblem,
    include_cleanup: bool = True,
) -> UpdateSchedule:
    """Compute the WayUp schedule for a waypointed update problem.

    Raises :class:`UpdateModelError` when the problem has no waypoint.
    The resulting schedule has at most six non-empty rounds; its round
    classes are recorded in ``metadata["round_names"]``.

    The construction is not re-checked here: a request's envelope
    (``verify=True``, the default on every REST, CLI and campaign path)
    verifies the schedule against WPE and blackhole freedom.
    """
    if problem.waypoint is None:
        raise UpdateModelError("WayUp requires a waypointed update problem")
    classes = problem.waypoint_classes
    w = classes.waypoint
    source = problem.source

    def changed(node) -> bool:
        return problem.kind(node) in (UpdateKind.INSTALL, UpdateKind.SWITCH)

    install = {node for node in problem.required_updates
               if problem.kind(node) is UpdateKind.INSTALL}
    post_waypoint = {
        node
        for node in problem.forwarding_nodes
        if changed(node) and (node == w or (node in classes.old_suf and node in problem.new_path))
    }
    shared_prefix = {
        node
        for node in problem.forwarding_nodes
        if changed(node)
        and node != source
        and node in classes.old_pre
        and node in classes.new_pre
    }
    source_round = {source} if changed(source) else set()
    late_movers = {
        node
        for node in problem.forwarding_nodes
        if changed(node) and node in classes.old_pre and node in classes.new_suf
    }
    cleanup = set(problem.cleanup_updates) if include_cleanup else set()

    raw_rounds = [install, post_waypoint, shared_prefix, source_round, late_movers, cleanup]
    rounds = []
    round_names = []
    for name, nodes in zip(ROUND_NAMES, raw_rounds):
        if nodes:
            rounds.append(nodes)
            round_names.append(name)
    if not rounds:
        # Degenerate problem: nothing changes.  Emit a single no-op-free
        # schedule is impossible (rounds must be non-empty), so signal it.
        raise UpdateModelError("WayUp invoked on a problem with no rule changes")
    return UpdateSchedule(
        problem,
        rounds,
        algorithm="wayup",
        metadata={"round_names": round_names},
    )
