"""Every ``check_deadline()`` sits at a point where stopping is harmless.

A request cut off by its deadline leaves behind whatever the shared
oracles of its problem (``oracle_for``) hold at that moment: applied but
uncommitted nodes, verdict memos, learned nogoods.  The campaign runner
and the REST service go on using those oracles, so the property is: make
the k-th poll of a run raise, for every k the run reaches, then run the
same request again on the *same problem object* -- it must produce what a
fresh problem produces (schedule, verification verdict, error class).

This is the test that licenses not wiping the unit cache and the nogood
tables after a timeout.
"""

from types import SimpleNamespace

import pytest

from repro.core import deadline
from repro.core.api import schedule_update
from repro.core.hardness import (
    crossing_clash_instance,
    reversal_instance,
    sawtooth_instance,
)
from repro.errors import ReproError, ScheduleTimeoutError

FAMILIES = {
    "reversal": reversal_instance,
    "sawtooth": lambda n: sawtooth_instance(n, 3),
    "crossing-clash": crossing_clash_instance,
}
SCHEDULERS = [
    "greedy-slf",
    "peacock",
    "combined:wpe+rlf",
    "combined:slf+blackhole",
    "optimal:slf",
    "optimal:rlf",
    "optimal:wpe+rlf",
]


def _outcome(problem, spec, **options):
    """What a caller can see of one verified request."""
    try:
        result = schedule_update(problem, spec, verify=True, **options)
    except ReproError as exc:
        return type(exc).__name__
    return (
        [sorted(nodes, key=repr) for nodes in result.schedule.rounds],
        result.verified,
    )


class _PollClock:
    """Stands in for ``deadline.time``: the ``fire_at``-th poll reads a
    clock far past any limit, every earlier one reads 0."""

    def __init__(self, fire_at: int) -> None:
        self.fire_at = fire_at
        self.polls = -1  # ``time_limit`` itself reads the clock once

    def monotonic(self) -> float:
        self.polls += 1
        return 1e9 if self.polls >= self.fire_at > 0 else 0.0


@pytest.mark.parametrize("spec", SCHEDULERS)
@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_interrupted_at_any_poll_then_rerun_matches_fresh(
    family, n, spec, monkeypatch
):
    build = FAMILIES[family]
    expected = _outcome(build(n), spec)

    counting = _PollClock(fire_at=0)  # never fires: counts the polls
    monkeypatch.setattr(deadline, "time", counting)
    assert _outcome(build(n), spec, timeout_s=1.0) == expected
    reached = counting.polls
    assert reached >= 1 or isinstance(expected, str)

    for k in range(1, reached + 1):
        problem = build(n)
        monkeypatch.setattr(deadline, "time", _PollClock(fire_at=k))
        assert (
            _outcome(problem, spec, timeout_s=1.0)
            == ScheduleTimeoutError.__name__
        ), f"poll {k} of {reached} did not stop the request"
        monkeypatch.setattr(deadline, "time", SimpleNamespace(monotonic=None))
        # no limit armed: a poll does not even look at the clock
        assert _outcome(problem, spec) == expected, (
            f"{family}({n}) {spec}: rerun after a stop at poll {k} differs"
        )
