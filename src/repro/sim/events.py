"""The simulated event: one slotted object per scheduled callback.

:meth:`Simulator.schedule <repro.sim.simulator.Simulator.schedule>` and its
siblings return a :class:`ScheduledEvent`; the simulator's heap holds it as
a ``(time, seq, event)`` entry.  ``seq`` is unique, so the heap's ordering
is a tuple compare that never reaches the event: an event carries no
ordering of its own, only what firing it needs and its state.

Cancellation is *lazy*: a cancelled event keeps its heap slot and is
dropped when it surfaces in :meth:`Simulator.run
<repro.sim.simulator.Simulator.run>`, the one loop that pops the heap.

:class:`RoundTiming` is the simulated start and end of one executed
update round, shared by the controller's round FSM and the churn engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ControllerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


class ScheduledEvent:
    """A callback scheduled at a point in simulated time."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple, sim: "Simulator"
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> bool:
        """Retract the event (heap-lazy: the entry stays until popped).

        Returns ``True`` when this call retracted a still-pending event,
        ``False`` when the event already fired or was already cancelled --
        so callers retracting obsolete re-plan callbacks (the churn
        controller) can account exactly once per retraction.
        """
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        self._sim._note_cancelled(self)
        return True

    @property
    def pending(self) -> bool:
        return not (self.fired or self.cancelled)


@dataclass
class RoundTiming:
    """Start/end instants of one executed round."""

    index: int
    started_ms: float
    finished_ms: float | None = None

    @property
    def duration_ms(self) -> float:
        if self.finished_ms is None:
            raise ControllerError(f"round {self.index} still running")
        return self.finished_ms - self.started_ms

    @property
    def running(self) -> bool:
        return self.finished_ms is None

    def to_dict(self) -> dict:
        """JSON-compatible dump that tolerates an unfinished round.

        Mid-update snapshots (churn metrics, live telemetry) dump timings
        while a round is still executing; ``duration_ms`` stays ``None``
        instead of raising until the round finishes.
        """
        return {
            "index": self.index,
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "duration_ms": (
                None if self.finished_ms is None else self.duration_ms
            ),
            "running": self.running,
        }
