"""Reference round packers: the probe-everything loops the schedulers used
before :mod:`repro.core.packing`.

Kept verbatim in behaviour (every pending node is probed with a real
``try_apply`` in every round) so ``test_packing.py`` can demand that the
witness-watching packer emits bit-identical rounds, round names and errors.
Each function returns ``(rounds, round_names)`` or raises what the
production scheduler raises.
"""

from __future__ import annotations

from repro.core.oracle import SafetyOracle
from repro.core.peacock import classify_forward_backward
from repro.core.problem import UpdateKind, UpdateProblem
from repro.errors import InfeasibleUpdateError, UpdateModelError


def naive_pack(oracle: SafetyOracle, pending: list) -> tuple[list[set], list]:
    """Probe all pending, keep the rejects; ``(rounds, stuck)``."""
    rounds: list[set] = []
    while pending:
        round_nodes: set = set()
        kept: list = []
        for node in pending:
            if oracle.try_apply(node):
                round_nodes.add(node)
            else:
                kept.append(node)
        if not round_nodes:
            return rounds, kept
        rounds.append(round_nodes)
        oracle.commit_round()
        pending = kept
    return rounds, []


def _installs(problem: UpdateProblem) -> set:
    return {
        node
        for node in problem.required_updates
        if problem.kind(node) is UpdateKind.INSTALL
    }


def _by_new_position(problem: UpdateProblem, nodes) -> list:
    new_pos = {node: i for i, node in enumerate(problem.new_path.nodes)}
    return sorted(nodes, key=lambda n: new_pos[n], reverse=True)


def _finish(problem, rounds, names, packed, label, include_cleanup):
    for index, round_nodes in enumerate(packed, start=1):
        rounds.append(round_nodes)
        names.append(f"{label}-{index}")
    if include_cleanup and problem.cleanup_updates:
        rounds.append(set(problem.cleanup_updates))
        names.append("cleanup")
    return rounds, names


def reference_greedy_slf(problem, oracle, include_cleanup=True):
    install = _installs(problem)
    rounds, names = ([install], ["install"]) if install else ([], [])
    oracle.reset(install)
    packed, stuck = naive_pack(
        oracle, _by_new_position(problem, set(problem.required_updates) - install)
    )
    if stuck:
        raise UpdateModelError(
            f"greedy SLF made no progress with pending nodes {stuck!r}"
        )
    return _finish(problem, rounds, names, packed, "flip", include_cleanup)


def reference_peacock(problem, oracle, include_cleanup=True):
    install = _installs(problem)
    forward, backward = classify_forward_backward(problem)
    rounds, names = [], []
    if install:
        rounds.append(install)
        names.append("install")
    if forward:
        rounds.append(forward)
        names.append("forward")
    oracle.reset(install | forward)
    packed, stuck = naive_pack(oracle, _by_new_position(problem, backward))
    if stuck:
        raise UpdateModelError(
            f"Peacock made no progress with pending nodes {stuck!r}"
        )
    return _finish(problem, rounds, names, packed, "backward", include_cleanup)


def reference_combined(problem, oracle, properties, include_cleanup=True):
    install = _installs(problem)
    rounds, names = [], []
    if install:
        if not oracle.round_is_safe(set(), install):
            raise InfeasibleUpdateError(
                "installing new-only rules already violates "
                f"{[p.value for p in properties]}"
            )
        rounds.append(install)
        names.append("install")
    oracle.reset(install)
    packed, stuck = naive_pack(
        oracle, _by_new_position(problem, problem.required_updates - install)
    )
    if stuck:
        raise InfeasibleUpdateError(
            f"greedy deadlock under {[p.value for p in properties]}: "
            f"none of {stuck!r} can be updated safely"
        )
    return _finish(problem, rounds, names, packed, "flip", include_cleanup)
