"""The simulated event: one slotted object per scheduled callback.

:meth:`Simulator.schedule <repro.sim.simulator.Simulator.schedule>` and its
siblings return a :class:`ScheduledEvent`; the simulator's heap holds it as
a ``(time, seq, event)`` entry.  ``seq`` is unique, so the heap's ordering
is a tuple compare that never reaches the event: an event carries no
ordering of its own, only what firing it needs and its state.

Cancellation is *lazy*: a cancelled event keeps its heap slot and is
dropped when it surfaces in :meth:`Simulator.run
<repro.sim.simulator.Simulator.run>`, the one loop that pops the heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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
