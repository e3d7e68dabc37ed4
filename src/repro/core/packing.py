"""Greedy round packing shared by greedy-SLF, Peacock and the combined greedy.

Visit the pending nodes by decreasing new-path position, keep every node
the :class:`~repro.core.oracle.SafetyOracle` accepts into the round, commit,
repeat -- but probe a rejected node again only when the reason for its
rejection may be gone.  A rejection names the nodes its violation witness
needs OLD (:meth:`SafetyOracle.try_apply_watched`); until ``commit_round``
the walk only *adds* edges, and a commit takes away exactly the old rules
of the committed nodes, so the witness -- and the rejection -- stands until
one of those nodes commits.  The packer watches them and sleeps the
candidate meanwhile: probes are bounded by candidates + wake-ups instead of
candidates x rounds, and the accepted sets are those of the
probe-everything loop (``tests/core/reference_packer.py``).  One visible
difference: an exact-RLF search that would have exceeded its budget while
re-probing a sleeping node is never started.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.deadline import check_deadline
from repro.core.oracle import SafetyOracle
from repro.core.problem import UpdateKind, UpdateProblem
from repro.topology.graph import NodeId

#: Probes between two looks at the request deadline (the first probe of
#: every round looks too): an armed look costs 0.17 us, a cheap probe 5.
_DEADLINE_POLL_EVERY = 64


def pack_rounds(
    oracle: SafetyOracle, candidates: Sequence[NodeId]
) -> tuple[list[set], list[NodeId]]:
    """Pack ``candidates`` (in probe order) into maximal safe rounds on top
    of the oracle's current state.  Returns ``(rounds, stuck)``: ``stuck``
    lists, in probe order, what was left when a round accepted nothing."""
    rank = {node: index for index, node in enumerate(candidates)}
    watchers: dict[NodeId, list[NodeId]] = {}
    asleep: set = set()
    awake = list(candidates)
    remaining = len(awake)
    rounds: list[set] = []
    while remaining:
        round_nodes: set = set()
        unwatched: list[NodeId] = []  # rejected without a witness: no sleep
        for probe, node in enumerate(awake):
            if not probe % _DEADLINE_POLL_EVERY:
                check_deadline()  # between probes: no delta half applied
            kept, watch = oracle.try_apply_watched(node)
            if kept:
                round_nodes.add(node)
            elif watch is None:
                unwatched.append(node)
            else:
                asleep.add(node)
                for watched in oracle.nodes_of(watch):
                    watchers.setdefault(watched, []).append(node)
        oracle.stats.watch_skips += remaining - len(awake)
        if not round_nodes:
            placed = set().union(*rounds)
            return rounds, [node for node in candidates if node not in placed]
        rounds.append(round_nodes)
        oracle.commit_round()
        remaining -= len(round_nodes)
        woken = {
            node
            for committed in round_nodes
            for node in watchers.pop(committed, ())
            if node in asleep
        }
        asleep -= woken
        awake = sorted(woken.union(unwatched), key=rank.__getitem__)
    return rounds, []


def install_round(problem: UpdateProblem) -> set:
    """New-only nodes: their rules carry no traffic yet, so they go first."""
    return {
        node
        for node in problem.required_updates
        if problem.kind(node) is UpdateKind.INSTALL
    }


def packed_schedule_rounds(
    problem: UpdateProblem,
    oracle: SafetyOracle,
    label: str,
    include_cleanup: bool,
    stalled: Callable[[list], Exception],
    forward: "set | frozenset" = frozenset(),
) -> tuple[list[set], list[str]]:
    """The rounds a packing scheduler emits, and their names: installs,
    then the ``forward`` round if any, then every other required update
    packed by decreasing new-path position into ``<label>-1..k`` (raising
    ``stalled(stuck)`` when packing stalls), then the optional cleanup."""
    prelude = [("install", install_round(problem)), ("forward", forward)]
    rounds = [set(nodes) for _, nodes in prelude if nodes]
    names = [name for name, nodes in prelude if nodes]
    oracle.reset(set().union(*rounds))
    new_pos = {node: i for i, node in enumerate(problem.new_path.nodes)}
    packed, stuck = pack_rounds(
        oracle,
        sorted(
            problem.required_updates.difference(*rounds),
            key=new_pos.__getitem__,
            reverse=True,
        ),
    )
    if stuck:
        raise stalled(stuck)
    rounds += packed
    names += [f"{label}-{index}" for index in range(1, len(packed) + 1)]
    if include_cleanup and problem.cleanup_updates:
        rounds.append(set(problem.cleanup_updates))
        names.append("cleanup")
    return rounds, names
