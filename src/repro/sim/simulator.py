"""A small deterministic discrete-event simulator.

All substrate components (switches, channels, the controller, traffic
injectors) schedule callbacks on one shared :class:`Simulator`; simulated
time is in **milliseconds**.  The simulator is single-threaded and fully
deterministic: identical seeds and schedules produce identical runs, which
is what makes the asynchrony experiments reproducible.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import ScheduledEvent

#: Events one :meth:`Simulator.run` processes before it calls the
#: scenario runaway.
MAX_EVENTS = 10_000_000


class Simulator:
    """Deterministic event loop with millisecond time.

    Pending events live in one heap of ``(time, seq, event)`` entries, so
    simultaneous events fire in scheduling order -- determinism matters
    more than fairness here.  :meth:`run` is the only code that pops it.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired, sim.now
    (['b', 'a'], 5.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._cancelled = 0  # cancelled entries still in the heap
        self._timers = 0  # pending events pushed by schedule_timer
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = ScheduledEvent(time, callback, args, self)
        heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        event = ScheduledEvent(time, callback, args, self)
        heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_timer(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """:meth:`schedule_at` for a timer: it fires when a run reaches
        ``time``, but a run without ``until`` returns once only timers
        are pending -- a timeout is not traffic, so draining the queue
        does not wait for one."""
        event = self.schedule_at(time, self._fire_timer, callback, args)
        self._timers += 1
        return event

    def _fire_timer(self, callback: Callable[..., None], args: tuple) -> None:
        self._timers -= 1
        callback(*args)

    def cancel(self, event: ScheduledEvent) -> bool:
        """Retract a scheduled event; True iff this call retracted it."""
        return event.cancel()

    def _note_cancelled(self, event: ScheduledEvent) -> None:
        self._cancelled += 1
        if event.callback == self._fire_timer:
            self._timers -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Fire events in ``(time, seq)`` order until the queue is empty
        or, with ``until``, until the next event lies past it (the clock
        then reads ``until``).  Without ``until``, pending timers alone do
        not keep it running.

        :data:`MAX_EVENTS` guards against runaway feedback loops in
        scenarios; exceeding it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        ceiling = self._events_processed + MAX_EVENTS
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if until is None:
                    if self._timers and self._timers == len(heap) - self._cancelled:
                        break
                elif time > until:
                    self.now = until
                    break
                heappop(heap)
                event.fired = True
                self.now = time
                self._events_processed += 1
                event.callback(*event.args)
                if self._events_processed > ceiling:
                    raise SimulationError(
                        f"exceeded {MAX_EVENTS} events; runaway scenario?"
                    )
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        return len(self._heap) - self._cancelled

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
