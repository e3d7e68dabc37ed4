"""Event queue primitives for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled at a point in simulated time.

    Ordering is ``(time, seq)`` so simultaneous events fire in scheduling
    order -- determinism matters more than fairness here.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    fired: bool = field(compare=False, default=False)
    _queue: "EventQueue | None" = field(compare=False, default=None, repr=False)

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
        if self._queue is not None:
            self._queue._note_cancelled(self)
        return True

    @property
    def pending(self) -> bool:
        return not (self.fired or self.cancelled)


class EventQueue:
    """A deterministic min-heap of :class:`ScheduledEvent`.

    Heap entries are ``(time, seq, event)``: ``seq`` is unique, so the
    heap's ordering is a tuple compare that never reaches the event object.

    Cancellation is *lazy*: a cancelled event keeps its heap slot and is
    skipped (and physically dropped) when it surfaces in :meth:`pop` /
    :meth:`peek_time`.  A live-entry counter keeps ``len()`` O(1) even
    with many retracted entries still buried in the heap.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._live = 0
        #: live entries pushed by :meth:`push_timer`
        self.timers = 0

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> ScheduledEvent:
        event = ScheduledEvent(
            time=time, seq=next(self._counter), callback=callback, args=args,
            _queue=self,
        )
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def push_timer(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """:meth:`push`, counted in :attr:`timers` until it fires or is
        cancelled."""
        self.timers += 1
        return self.push(time, self._fire_timer, callback, args)

    def _fire_timer(self, callback: Callable[..., None], args: tuple) -> None:
        self.timers -= 1
        callback(*args)

    def _note_cancelled(self, event: ScheduledEvent) -> None:
        self._live -= 1
        if event.callback == self._fire_timer:
            self.timers -= 1

    def pop(self) -> ScheduledEvent | None:
        """Pop the earliest non-cancelled event, or None when drained."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                event.fired = True
                self._live -= 1
                return event
        return None

    def peek_time(self) -> float | None:
        """Earliest pending event time (skipping cancelled), or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None
