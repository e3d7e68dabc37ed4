"""Adversarial instance families from the scheduling literature.

These generators produce the update problems on which the round-count
separations of the cited papers show up:

* :func:`reversal_instance` -- the new path walks the old path backwards.
  Any strong-loop-free schedule is forced to peel one node per round
  (Theta(n) rounds), while a relaxed-loop-free schedule finishes in three
  switch rounds: the backward region is unreachable from the source until
  the very last flip.
* :func:`sawtooth_instance` -- block-wise reversals, interpolating between
  the easy (block=1: pure forward) and hard (block=n-2: full reversal)
  extremes.
* :func:`crossing_instance` -- the minimal waypoint crossing (old
  ``s a w b d``, new ``s b w a d``): WayUp needs its late-mover round here,
  and combining waypoint enforcement with strong loop freedom becomes
  delicate; the exact search in :mod:`repro.core.optimal` decides it.
* :func:`waypoint_slalom_instance` -- longer crossings with ``k`` segment
  swaps around the waypoint, the scaling version of the above.
"""

from __future__ import annotations

from repro.errors import UpdateModelError
from repro.core.problem import UpdateProblem
from repro.topology.paths import Path


def reversal_instance(n: int) -> UpdateProblem:
    """Old path ``1..n``; new path ``1, n-1, n-2, ..., 2, n``.

    Needs ``n >= 5`` for the effect to exist (shorter instances are trivial).
    """
    if n < 4:
        raise UpdateModelError(f"reversal instance needs n >= 4, got {n}")
    old = list(range(1, n + 1))
    new = [1, *range(n - 1, 1, -1), n]
    return UpdateProblem(Path(old), Path(new), name=f"reversal-{n}")


def sawtooth_instance(n: int, block: int) -> UpdateProblem:
    """Old path ``1..n``; the interior is reversed block-wise on the new path.

    ``block=1`` keeps the old order (every node a no-op); ``block=n-2``
    degenerates to :func:`reversal_instance`'s single big tooth.
    """
    if n < 4:
        raise UpdateModelError(f"sawtooth instance needs n >= 4, got {n}")
    if block < 1:
        raise UpdateModelError(f"block size must be positive, got {block}")
    interior = list(range(2, n))
    new_interior: list[int] = []
    for start in range(0, len(interior), block):
        chunk = interior[start : start + block]
        new_interior.extend(reversed(chunk))
    new = [1, *new_interior, n]
    return UpdateProblem(Path(range(1, n + 1)), Path(new), name=f"sawtooth-{n}-{block}")


def crossing_instance() -> UpdateProblem:
    """The minimal waypoint crossing: old ``1 2 3 4 5``, new ``1 4 3 2 5``, w=3.

    Node 4 moves from the old suffix onto the new prefix, node 2 from the
    old prefix onto the new suffix -- the configuration that forces WayUp's
    round ordering (update 4 early, 2 only after the source flipped).
    """
    return UpdateProblem(
        Path([1, 2, 3, 4, 5]), Path([1, 4, 3, 2, 5]), waypoint=3, name="crossing"
    )


def crossing_clash_instance(n: int, block: int = 2) -> UpdateProblem:
    """A waypoint crossing welded onto a sawtooth interior: the
    infeasibility stress case for WPE together with strong loop freedom.

    Old path ``s, i_1..i_m, a, w, b, d``; new path routes the interior
    block-reversed, then crosses ``a`` and ``b`` over the waypoint
    (``..., b, w, a, d``).  The crossing core is round-infeasible under
    WPE+SLF (the :func:`crossing_instance` clash), but unlike the bare
    crossing the interior offers plenty of individually safe first moves
    -- so naive exact search must exhaust the exponential interleavings
    of the interior blocks at *every* deepening level before concluding
    infeasibility, while the forced-order certificates of
    :mod:`repro.core.bnb` prove it from the core alone.  ``n`` counts
    path nodes; required updates are ``n - 1``.
    """
    if n < 7:
        raise UpdateModelError(f"crossing clash needs n >= 7, got {n}")
    if block < 1:
        raise UpdateModelError(f"block size must be positive, got {block}")
    m = n - 5
    s = 0
    interior = list(range(1, m + 1))
    a, w, b, d = m + 1, m + 2, m + 3, m + 4
    new_interior: list[int] = []
    for start in range(0, m, block):
        chunk = interior[start : start + block]
        new_interior.extend(reversed(chunk))
    return UpdateProblem(
        Path([s, *interior, a, w, b, d]),
        Path([s, *new_interior, b, w, a, d]),
        waypoint=w,
        name=f"clash-{n}-{block}",
    )


def waypoint_slalom_instance(k: int) -> UpdateProblem:
    """A crossing with ``k`` node pairs swapped across the waypoint.

    Old path: ``s, a_1..a_k, w, b_1..b_k, d``.
    New path: ``s, b_1..b_k, w, a_1..a_k, d``.
    Every ``a_i`` is an old-prefix/new-suffix late mover and every ``b_i``
    an old-suffix/new-prefix early mover; the instance scales the WayUp
    stress of :func:`crossing_instance`.
    """
    if k < 1:
        raise UpdateModelError(f"slalom needs k >= 1, got {k}")
    s, w, d = 0, 2 * k + 1, 2 * k + 2
    a_nodes = list(range(1, k + 1))
    b_nodes = list(range(k + 1, 2 * k + 1))
    old = [s, *a_nodes, w, *b_nodes, d]
    new = [s, *b_nodes, w, *a_nodes, d]
    return UpdateProblem(Path(old), Path(new), waypoint=w, name=f"slalom-{k}")


def double_diamond_instance() -> UpdateProblem:
    """A small waypointed instance with fresh detour nodes on both sides.

    Old: ``1 2 3 4 5 9``; new: ``1 6 3 7 8 9`` with waypoint 3 -- installs
    on both sides of the waypoint plus deletions, exercising every update
    kind without any crossing.  WayUp solves it in its first four rounds.
    """
    return UpdateProblem(
        Path([1, 2, 3, 4, 5, 9]),
        Path([1, 6, 3, 7, 8, 9]),
        waypoint=3,
        name="double-diamond",
    )
