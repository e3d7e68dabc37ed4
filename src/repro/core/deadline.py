"""The wall-clock deadline of the request the current thread is serving.

:func:`time_limit` sets it, :func:`check_deadline` is what the long loops
call -- at points where every oracle invariant holds, so a request that
is cut off leaves the shared oracles, their memos and their nogood tables
as usable as one that finished: ``pack_rounds`` (first probe of a round,
then every 64th), the exact search (node entry and every 1024th candidate
round), ``verify_schedule`` (per round), the joint-greedy probe loop and
the churn controller's round planner.

The bound is cooperative: exact to one poll interval inside search,
verification and churn planning, and blind to code that never polls.
What a request runs between polls is single O(n) passes: problem tables
and oracle build (35-40 ms at n = 20,000), and inside the oracle -- where
stopping is what must not happen -- the re-validation of blocked edges
after a big commit (0.25 s for Peacock on reversal(20000)).  Family
builders and third-party schedulers sit behind the campaign runner's
rlimit guard.

Per thread, like :class:`~repro.core.oracle.RequestScope`: nothing is
threaded through ``ScheduleRequest`` or the scheduler signatures, and the
limit works on whichever thread runs the request.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.errors import ScheduleTimeoutError


class _Local(threading.local):
    # class-level defaults: a thread that never armed a limit reads them
    # without a per-thread ``__dict__`` miss (0.09 us vs 0.59 us per poll)
    deadline: float | None = None
    seconds: float | None = None


_LOCAL = _Local()


@contextlib.contextmanager
def time_limit(seconds: float | None):
    """Give the enclosed code ``seconds`` of wall clock on this thread.

    Past that, the next :func:`check_deadline` raises
    :class:`ScheduleTimeoutError` naming the limit that ran out.  ``None``
    sets no limit.  Nested limits keep the earlier deadline; on exit the
    outer one is in force again.
    """
    outer = (_LOCAL.deadline, _LOCAL.seconds)
    if seconds is not None:
        deadline = time.monotonic() + seconds
        if outer[0] is None or deadline < outer[0]:
            _LOCAL.deadline, _LOCAL.seconds = deadline, seconds
    try:
        yield
    finally:
        _LOCAL.deadline, _LOCAL.seconds = outer


def check_deadline() -> None:
    """Raise :class:`ScheduleTimeoutError` if this thread's limit ran out."""
    deadline = _LOCAL.deadline
    if deadline is not None and time.monotonic() > deadline:
        raise ScheduleTimeoutError(f"exceeded {_LOCAL.seconds}s")
