"""Instance-family registry: scenario generators the campaign engine sweeps.

Each family turns ``(size, params, seed)`` into a :class:`WorkUnit` -- one
update problem, or a batch of isolated per-flow policies that a scheduler
solves independently and the engine merges round-wise
(:func:`repro.core.multipolicy.merge_isolated_schedules` semantics: joint
rounds = max over policies, touches = sum).

Families
========

``reversal`` / ``sawtooth`` / ``slalom`` / ``crossing`` /
``double-diamond`` / ``figure1``
    The deterministic adversarial instances of :mod:`repro.core.hardness`
    and the paper's demo problem; ``seed`` is ignored.
``random-update``
    :func:`repro.topology.random_graphs.random_update_instance` -- the
    permuted-interior family, optionally waypointed (``params.waypoint``).
``fat-tree``
    A new family: sample a random simple path pair between two switches of
    a k-ary fat-tree (``size`` = k, even), the data-center shape whose
    pod/core structure produces realistic partial-overlap updates.
``multipolicy``
    A new family: a mixed batch of ``params.policies`` isolated per-flow
    policies (node ids shifted so flows never share rules), every
    ``params.waypoint_every``-th policy waypointed -- the DSN'16
    multi-policy regime at campaign scale.
``memhog``
    A resource-guard probe: allocates ``size`` MiB before scheduling a
    trivial instance, so a campaign ``mem_limit_mb`` below ``size`` turns
    the cell into a deterministic ``MemoryError`` record.
``churn-fat-tree`` / ``churn-wan``
    Online families: the unit carries a seeded
    :class:`~repro.churn.traces.ChurnTrace` (arrivals, cancellations,
    link failures over simulated time) instead of problems; the runner
    drives it through the online churn controller, with the scheduler
    column selecting scheduled-vs-unscheduled mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import CampaignSpecError, ChurnError
from repro.campaign.spec import derive_seed
from repro.churn_options import TRACE_PARAMS
from repro.core.hardness import (
    crossing_instance,
    double_diamond_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.problem import UpdateProblem
from repro.topology import builders
from repro.topology.random_graphs import (
    random_path_pair_in,
    random_update_instance,
)

#: Node-id stride between policies of a multipolicy batch; keeps the
#: per-flow rule spaces disjoint (isolated flows never interact).
_POLICY_STRIDE = 100_000


@dataclass(frozen=True)
class WorkUnit:
    """What one cell schedules: problems, an isolated batch, or a trace.

    A churn unit has ``problems == ()`` and carries the trace instead;
    the runner dispatches on ``trace`` before looking at the problems.
    """

    problems: tuple[UpdateProblem, ...]
    batch: bool = False
    trace: Any = None


def _reversal(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return WorkUnit((reversal_instance(size),))


def _sawtooth(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    block = int(params.get("block", max(2, size // 4)))
    return WorkUnit((sawtooth_instance(size, block=block),))


def _slalom(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return WorkUnit((waypoint_slalom_instance(size),))


def _crossing(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return WorkUnit((crossing_instance(),))


def _double_diamond(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return WorkUnit((double_diamond_instance(),))


def _figure1(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    from repro.netlab.figure1 import figure1_problem

    return WorkUnit((figure1_problem(),))


def _random_update(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    overlap = float(params.get("overlap", 0.5))
    with_waypoint = bool(params.get("waypoint", False))
    old_path, new_path, waypoint = random_update_instance(
        size, seed=seed, overlap=overlap, with_waypoint=with_waypoint
    )
    suffix = "wp" if with_waypoint else "plain"
    problem = UpdateProblem(
        old_path, new_path, waypoint=waypoint, name=f"random-{suffix}-{size}"
    )
    return WorkUnit((problem,))


def _fat_tree(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    topo = builders.fat_tree(size)
    rng = random.Random(seed)
    old_path, new_path = random_path_pair_in(topo, seed=rng)
    problem = UpdateProblem(old_path, new_path, name=f"fat-tree-{size}")
    return WorkUnit((problem,))


def _multipolicy(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    policies = int(params.get("policies", 3))
    overlap = float(params.get("overlap", 0.5))
    waypoint_every = int(params.get("waypoint_every", 2))
    problems: list[UpdateProblem] = []
    for index in range(policies):
        with_waypoint = waypoint_every > 0 and index % waypoint_every == 0
        old_path, new_path, waypoint = random_update_instance(
            size,
            seed=derive_seed(seed, "policy", index),
            overlap=overlap,
            with_waypoint=with_waypoint,
        )
        shift = index * _POLICY_STRIDE
        problems.append(
            UpdateProblem(
                [node + shift for node in old_path.nodes],
                [node + shift for node in new_path.nodes],
                waypoint=waypoint + shift if waypoint is not None else None,
                name=f"mp-{size}-p{index}",
            )
        )
    return WorkUnit(tuple(problems), batch=True)


def _churn_unit(kind: str, size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    from repro.churn.traces import generate_trace

    return WorkUnit((), trace=generate_trace(kind, size, seed, **params))


def _memhog(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    """Allocate ``size`` MiB up front, then solve a trivial instance.

    Exists to exercise the per-cell resource guards: under a campaign
    ``mem_limit_mb`` below ``size`` the allocation raises ``MemoryError``
    deterministically (the guard caps the address space, so the failure
    is identical in a 1-worker pool baseline and any fabric fleet);
    without a limit the memory is allocated, touched page-wise, and
    released before scheduling.
    """
    hog = bytearray(size << 20)
    hog[:: 1 << 12] = b"\x01" * len(hog[:: 1 << 12])
    del hog
    return WorkUnit((reversal_instance(4),))


def _churn_fat_tree(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return _churn_unit("fat-tree", size, params, seed)


def _churn_wan(size: int, params: Mapping[str, Any], seed: int) -> WorkUnit:
    return _churn_unit("wan", size, params, seed)


@dataclass(frozen=True)
class FamilyDef:
    name: str
    build: Any
    min_size: int
    allowed_params: frozenset | None  # None: the churn trace knobs' schema
    sized: bool = True  # False: fixed instance, 'size' is ignored


_FAMILIES: dict[str, FamilyDef] = {
    definition.name: definition
    for definition in (
        FamilyDef("reversal", _reversal, 4, frozenset()),
        FamilyDef("sawtooth", _sawtooth, 4, frozenset({"block"})),
        FamilyDef("slalom", _slalom, 1, frozenset()),
        FamilyDef("crossing", _crossing, 0, frozenset(), sized=False),
        FamilyDef("double-diamond", _double_diamond, 0, frozenset(), sized=False),
        FamilyDef("figure1", _figure1, 0, frozenset(), sized=False),
        FamilyDef(
            "random-update", _random_update, 3, frozenset({"overlap", "waypoint"})
        ),
        FamilyDef("fat-tree", _fat_tree, 2, frozenset()),
        FamilyDef(
            "multipolicy",
            _multipolicy,
            3,
            frozenset({"policies", "overlap", "waypoint_every"}),
        ),
        FamilyDef("memhog", _memhog, 1, frozenset()),
        FamilyDef("churn-fat-tree", _churn_fat_tree, 2, None),
        FamilyDef("churn-wan", _churn_wan, 8, None),
    )
}


def known_families() -> frozenset:
    return frozenset(_FAMILIES)


def validate_family(
    family: str,
    sizes: Sequence[int],
    params: Mapping[str, Any],
    grid: Mapping[str, Sequence[Any]],
) -> None:
    """Spec-time validation so bad sweeps fail before any worker starts."""
    definition = _FAMILIES.get(family)
    if definition is None:
        raise CampaignSpecError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    if definition.allowed_params is None:
        _check_trace_params(family, params, grid)
    elif unknown := (set(params) | set(grid)) - definition.allowed_params:
        raise CampaignSpecError(
            f"family {family!r} does not take params {sorted(unknown)}; "
            f"allowed: {sorted(definition.allowed_params)}"
        )
    if definition.sized:
        bad = [size for size in sizes if size < definition.min_size]
        if bad:
            raise CampaignSpecError(
                f"family {family!r} needs sizes >= {definition.min_size}, got {bad}"
            )
    if family in ("fat-tree", "churn-fat-tree"):
        odd = [size for size in sizes if size % 2]
        if odd:
            raise CampaignSpecError(f"fat-tree arity must be even, got {odd}")


def _check_trace_params(
    family: str, params: Mapping[str, Any], grid: Mapping[str, Sequence[Any]]
) -> None:
    """A churn entry's params and every grid value, through the trace
    knobs' schema (the trace is only generated when a cell runs), then
    the params with each grid axis at its largest value: every bound
    across knobs grows with each of them, so no cell exceeds it."""
    try:
        TRACE_PARAMS.decode(params)
        for key, values in grid.items():
            for value in values:
                TRACE_PARAMS.decode({key: value})
        largest = {key: max(values, key=float) for key, values in grid.items() if values}
        TRACE_PARAMS.decode({**params, **largest})
    except ChurnError as exc:
        raise CampaignSpecError(f"family {family!r}: {exc}") from None


def build_unit(
    family: str, size: int, params: Mapping[str, Any], seed: int
) -> WorkUnit:
    """Materialize the instance(s) of one cell, deterministically."""
    definition = _FAMILIES.get(family)
    if definition is None:
        raise CampaignSpecError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    return definition.build(size, params, seed)


def single_problem(
    family: str, size: int, params: Mapping[str, Any], seed: int
) -> UpdateProblem:
    """The one problem of a non-batch family (CLI convenience)."""
    unit = build_unit(family, size, params, seed)
    if unit.batch or unit.trace is not None:
        raise CampaignSpecError(
            f"family {family!r} does not produce a single problem"
        )
    return unit.problems[0]
