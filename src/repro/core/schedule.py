"""Round-based update schedules.

An :class:`UpdateSchedule` partitions the node updates of an
:class:`~repro.core.problem.UpdateProblem` into ordered *rounds*.  The
controller sends all FlowMods of a round, flushes them with OpenFlow
barriers, and only then starts the next round -- so between rounds the
network state is known exactly, while *within* a round updates land in any
order and any interleaving must be safe (that is what the verifiers check).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import ScheduleError
from repro.core.problem import UpdateKind, UpdateProblem
from repro.topology.graph import NodeId


class UpdateSchedule:
    """An immutable sequence of update rounds (each a frozenset of nodes).

    >>> problem = UpdateProblem([1, 2, 3], [1, 4, 3])
    >>> schedule = UpdateSchedule(problem, [[4], [1], [2]])
    >>> schedule.n_rounds
    3
    >>> schedule.round_of(1)
    1
    """

    def __init__(
        self,
        problem: UpdateProblem,
        rounds: Sequence[Iterable[NodeId]],
        algorithm: str = "manual",
        metadata: dict | None = None,
    ) -> None:
        self.problem = problem
        self.rounds: tuple[frozenset, ...] = tuple(
            frozenset(round_nodes) for round_nodes in rounds
        )
        self.algorithm = algorithm
        self.metadata = dict(metadata or {})
        self._round_of: dict[NodeId, int] = {}
        self._validate()

    def _validate(self) -> None:
        problem = self.problem
        for index, round_nodes in enumerate(self.rounds):
            if not round_nodes:
                raise ScheduleError(f"round {index} is empty")
            for node in round_nodes:
                if node in self._round_of:
                    raise ScheduleError(f"node {node!r} scheduled twice")
                if node not in problem.nodes:
                    raise ScheduleError(f"node {node!r} is not part of the problem")
                kind = problem.kind(node)
                if kind is UpdateKind.NOOP:
                    raise ScheduleError(f"node {node!r} needs no update")
                self._round_of[node] = index
        missing = problem.required_updates - set(self._round_of)
        if missing:
            raise ScheduleError(f"required updates never scheduled: {sorted(map(repr, missing))}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.rounds)

    def __getitem__(self, index: int) -> frozenset:
        return self.rounds[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateSchedule):
            return NotImplemented
        return self.problem is other.problem and self.rounds == other.rounds

    def __repr__(self) -> str:
        inner = "; ".join(
            "{" + ", ".join(repr(n) for n in sorted(r, key=repr)) + "}"
            for r in self.rounds
        )
        return f"UpdateSchedule[{self.algorithm}]({inner})"

    def round_of(self, node: NodeId) -> int | None:
        """Index of the round updating ``node`` (``None`` if unscheduled)."""
        return self._round_of.get(node)

    def scheduled_nodes(self) -> frozenset:
        return frozenset(self._round_of)

    def includes_cleanup(self) -> bool:
        """True when every old-only node gets its rule deleted."""
        return self.problem.cleanup_updates <= self.scheduled_nodes()

    def total_updates(self) -> int:
        return len(self._round_of)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_cleanup(self) -> "UpdateSchedule":
        """Append a final round deleting stale rules (no-op if none/any already)."""
        pending = self.problem.cleanup_updates - self.scheduled_nodes()
        if not pending:
            return self
        return UpdateSchedule(
            self.problem,
            [*self.rounds, pending],
            algorithm=self.algorithm,
            metadata={**self.metadata, "cleanup": True},
        )

    def merged(self) -> "UpdateSchedule":
        """Collapse to a single round (what a naive controller would send)."""
        everything = frozenset().union(*self.rounds)
        return UpdateSchedule(
            self.problem,
            [everything],
            algorithm=f"{self.algorithm}+merged",
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "rounds": [sorted(r, key=repr) for r in self.rounds],
            "metadata": dict(self.metadata),
        }


def sequential_schedule(
    problem: UpdateProblem, order: Sequence[NodeId] | None = None
) -> UpdateSchedule:
    """One node per round, in ``order`` (default: installs, switches, deletes).

    The maximally conservative baseline: ``n`` rounds, each trivially
    atomic.  Used in tests and as a worst-case comparator in E5.
    """
    if order is None:
        by_kind = {UpdateKind.INSTALL: 0, UpdateKind.SWITCH: 1, UpdateKind.DELETE: 2}
        order = sorted(
            problem.all_updates, key=lambda n: (by_kind[problem.kind(n)], repr(n))
        )
    return UpdateSchedule(
        problem, [[node] for node in order], algorithm="sequential"
    )
