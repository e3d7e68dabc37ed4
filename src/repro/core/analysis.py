"""Structural analysis of update problems: dependencies and explanations.

Scheduling decisions follow from *ordering constraints* between rule
updates.  This module makes them explicit, using the exact verifiers as
the oracle (so every statement inherits their soundness):

* :func:`unsafe_alone` -- nodes that can never be the very first update;
* :func:`is_order_forced` -- must ``v`` go strictly before ``u`` in
  *every* safe schedule?  Decided exactly, by a filtered exact search;
* :func:`dependency_graph` -- every forced order of a small instance
  (quadratically many :func:`is_order_forced` queries);
* :func:`greedy_deadlock_certificate` -- when every pending node is unsafe
  first, no round schedule can start at all: an immediate infeasibility
  certificate (this is exactly what the crossing instance produces under
  WPE + loop freedom);
* :func:`explain_schedule` -- human-readable per-round narrative.

These are diagnostics, not schedulers: pairwise views are necessary-side
approximations of the full (set-quantified) feasibility question decided
by :mod:`repro.core.optimal`.
"""

from __future__ import annotations

from repro.core.oracle import oracle_for
from repro.core.problem import UpdateProblem
from repro.core.schedule import UpdateSchedule
from repro.core.verify import Property
from repro.topology.graph import NodeId


def unsafe_alone(
    problem: UpdateProblem, properties: tuple[Property, ...]
) -> set:
    """Nodes whose update, applied first (alone), already violates."""
    oracle = oracle_for(problem, tuple(properties))
    bits = problem.node_bit
    return {
        node
        for node in problem.canonical_updates
        if not oracle.round_is_safe(0, 1 << bits[node])
    }


def is_order_forced(
    problem: UpdateProblem,
    v: NodeId,
    u: NodeId,
    properties: tuple[Property, ...],
    max_nodes: int = 10,
) -> bool:
    """Must ``v`` be updated strictly before ``u`` in *every* safe schedule?

    Exact: searches for any safe schedule where ``u``'s round is no later
    than ``v``'s (enforced with a transition filter on the exhaustive
    search); if none exists, the order is forced.  Infeasible instances
    force nothing (there are no safe schedules to constrain).  Exponential
    -- intended for the small diagnostic instances.
    """
    required = problem.required_updates
    for node in (v, u):
        if node not in required:
            raise ValueError(f"{node!r} is not a required update")
    if v == u:
        return False

    def u_not_after_v(updated: set, round_nodes: set) -> bool:
        # veto rounds that would update v while u is still pending later
        if v in round_nodes:
            return u in updated or u in round_nodes
        return True

    from repro.core.optimal import is_feasible

    if is_feasible(
        problem, properties, max_nodes=max_nodes, round_filter=u_not_after_v
    ):
        return False
    # no safe schedule with u <= v; forced only if some schedule exists
    return is_feasible(problem, properties, max_nodes=max_nodes)


def dependency_graph(
    problem: UpdateProblem,
    properties: tuple[Property, ...],
    max_nodes: int = 10,
) -> nx.DiGraph:
    """Forced-precedence edges ``v -> u`` (v strictly before u, exactly).

    Quadratically many :func:`is_order_forced` queries; small instances
    only.  The resulting graph is acyclic whenever the instance is
    feasible (a forced cycle would contradict the witness schedule).
    """
    import networkx as nx

    graph = nx.DiGraph()
    nodes = problem.canonical_updates
    graph.add_nodes_from(nodes)
    for v in nodes:
        for u in nodes:
            if v != u and is_order_forced(problem, v, u, properties, max_nodes):
                graph.add_edge(v, u)
    return graph


def greedy_deadlock_certificate(
    problem: UpdateProblem, properties: tuple[Property, ...]
) -> set | None:
    """When *every* required node is unsafe first, return them all.

    No round schedule can begin, so the property combination is
    round-infeasible -- the shape of the WPE-vs-loop-freedom clash on
    crossing instances.  Returns ``None`` when some node can start.
    """
    blocked = unsafe_alone(problem, properties)
    if blocked == set(problem.required_updates) and blocked:
        return blocked
    return None


def explain_schedule(schedule: UpdateSchedule) -> list[str]:
    """One line per round: what changes and why it is grouped there."""
    problem = schedule.problem
    names = schedule.metadata.get("round_names") or [
        f"round-{i}" for i in range(schedule.n_rounds)
    ]
    lines = []
    for index, nodes in enumerate(schedule.rounds):
        changes = []
        for node in sorted(nodes, key=repr):
            kind = problem.kind(node).value
            if kind == "switch":
                old = problem.old_path.next_hop(node)
                new = problem.new_path.next_hop(node)
                changes.append(f"{node}: ->{old} becomes ->{new}")
            elif kind == "install":
                changes.append(f"{node}: install ->{problem.new_path.next_hop(node)}")
            else:
                changes.append(f"{node}: delete stale rule")
        lines.append(f"round {index} [{names[index]}]: " + "; ".join(changes))
    return lines
