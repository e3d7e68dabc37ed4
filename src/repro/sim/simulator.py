"""A small deterministic discrete-event simulator.

All substrate components (switches, channels, the controller, traffic
injectors) schedule callbacks on one shared :class:`Simulator`; simulated
time is in **milliseconds**.  The simulator is single-threaded and fully
deterministic: identical seeds and schedules produce identical runs, which
is what makes the asynchrony experiments reproducible.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import EventQueue, ScheduledEvent

#: Events one :meth:`Simulator.run` processes before it calls the
#: scenario runaway.
MAX_EVENTS = 10_000_000


class Simulator:
    """Deterministic event loop with millisecond time.

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
        self._queue = EventQueue()
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
        return self._queue.push(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._queue.push(time, callback, *args)

    def schedule_timer(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """:meth:`schedule_at` for a timer: it fires when a run reaches
        ``time``, but a run without ``until`` returns once only timers
        are pending -- a timeout is not traffic, so draining the queue
        does not wait for one."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._queue.push_timer(time, callback, *args)

    def cancel(self, event: ScheduledEvent) -> bool:
        """Retract a scheduled event; True iff this call retracted it."""
        return event.cancel()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue went backwards in time")
        self.now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: float | None = None) -> None:
        """Drain the queue (optionally only up to time ``until``); without
        ``until``, pending timers alone do not keep it running.

        :data:`MAX_EVENTS` guards against runaway feedback loops in
        scenarios; exceeding it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue, drain = self._queue, until is None
        try:
            processed = 0
            while True:
                next_time = queue.peek_time()
                if next_time is None or (
                    drain and queue.timers and queue.timers == len(queue)
                ):
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                if not self.step():  # pragma: no cover - peek said otherwise
                    break
                processed += 1
                if processed > MAX_EVENTS:
                    raise SimulationError(
                        f"exceeded {MAX_EVENTS} events; runaway scenario?"
                    )
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
