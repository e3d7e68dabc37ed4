"""E9 -- verifier cost: polynomial union-graph checks vs exhaustive oracle.

The polynomial verifiers are what makes verify-before-deploy practical:
checking a round is reachability/cycle detection on the union graph,
while the oracle enumerates 2^|round| configurations.  The table shows
wall-time per full-schedule verification as the instance grows, and the
benchmark groups let pytest-benchmark quantify each verifier.

One wall ratio gates here: exact RLF + blackhole verification of
Peacock's schedule on reversal(2000) costs at most
:data:`MAX_DOUBLING_COST_RATIO` times reversal(1000).  It stays a wall
because no revert of the verifier was found that both it and its count
twin (``tests/core/test_verify_equivalence.py::
test_verifying_peacocks_wide_rounds_is_linear``) fail on.
"""

import gc
import time

import pytest

from repro.core.hardness import reversal_instance, waypoint_slalom_instance
from repro.core.oneshot import oneshot_schedule
from repro.core.peacock import peacock_schedule
from repro.core.verify import Property, verify_exhaustive, verify_schedule
from repro.core.wayup import wayup_schedule

MAX_DOUBLING_COST_RATIO = 2.6


def _time_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


@pytest.mark.benchmark(group="e9-verifier")
def test_e9_poly_vs_exhaustive(benchmark, emit):
    rows = []
    for n in (6, 8, 10, 12, 14):
        schedule = oneshot_schedule(reversal_instance(n), include_cleanup=False)
        properties = (Property.SLF, Property.RLF, Property.BLACKHOLE)
        poly_ms = _time_ms(lambda: verify_schedule(schedule, properties=properties))
        brute_ms = (
            _time_ms(
                lambda: verify_exhaustive(
                    schedule, properties=properties, max_flexible=n
                )
            )
            if n <= 12
            else None
        )
        rows.append([
            n,
            poly_ms,
            brute_ms if brute_ms is not None else "-",
            (brute_ms / poly_ms) if brute_ms else "-",
        ])
    emit(
        "E9a / verification wall time: polynomial vs exhaustive (one-shot)",
        ["n", "poly ms", "exhaustive ms", "speedup"],
        rows,
    )

    benchmark.pedantic(
        lambda: verify_schedule(
            oneshot_schedule(reversal_instance(12), include_cleanup=False),
            properties=(Property.SLF, Property.RLF, Property.BLACKHOLE),
        ),
        rounds=5,
        iterations=2,
    )


@pytest.mark.benchmark(group="e9-verifier")
def test_e9_poly_scales_to_large_instances(benchmark, emit):
    rows = []
    for n in (50, 100, 200, 400, 1000, 2000):
        schedule = peacock_schedule(
            reversal_instance(n), include_cleanup=False, exact=False
        )
        elapsed = _time_ms(
            lambda: verify_schedule(
                schedule,
                properties=(Property.RLF, Property.BLACKHOLE),
                exact_rlf=False,
            )
        )
        rows.append([n, schedule.n_rounds, elapsed])
    emit(
        "E9b / conservative verification scales (Peacock schedules)",
        ["n", "rounds", "verify ms"],
        rows,
    )

    problem = reversal_instance(2000)
    schedule = peacock_schedule(problem, include_cleanup=False, exact=False)
    benchmark.pedantic(
        lambda: verify_schedule(
            schedule, properties=(Property.RLF,), exact_rlf=False
        ),
        rounds=5,
        iterations=1,
    )


@pytest.mark.benchmark(group="e9-verifier")
def test_e9_wayup_verification_cost(benchmark):
    """Per-schedule cost of the WPE check on a large slalom (n=1003)."""
    schedule = wayup_schedule(waypoint_slalom_instance(500))
    report = benchmark.pedantic(
        lambda: verify_schedule(
            schedule, properties=(Property.WPE, Property.BLACKHOLE)
        ),
        rounds=5,
        iterations=2,
    )
    assert report.ok


def test_e9_peacock_verify_doubles_linearly(emit):
    """Peacock's few wide rounds verified against RLF + blackhole freedom
    (the other half of a large ``POST /schedule``): the 2000/1000 ratio
    of the best of 15 passes, at most :data:`MAX_DOUBLING_COST_RATIO`.

    The two sizes are timed in alternation, collector off: a process can
    run a whole stretch at about half speed on a shared host, and two
    sizes timed one after the other then read a ratio near 1 or near 3.5
    (2 of 10 runs failed so on a two-CPU host; alternating, 12 runs read
    1.92-2.13)."""
    properties = (Property.RLF, Property.BLACKHOLE)
    schedules = {
        n: peacock_schedule(reversal_instance(n), include_cleanup=False)
        for n in (1000, 2000)
    }
    for schedule in schedules.values():
        assert verify_schedule(schedule, properties).ok
    best = dict.fromkeys(schedules, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(15):
            for n, schedule in schedules.items():
                elapsed = _time_ms(lambda: verify_schedule(schedule, properties))
                best[n] = min(best[n], elapsed)
    finally:
        gc.enable()
    ratio = best[2000] / best[1000]
    emit(
        "E9c / exact RLF + blackhole verification of Peacock schedules",
        ["n", "verify ms", "ratio to n=1000"],
        [[n, best[n], best[n] / best[1000]] for n in best],
    )
    assert ratio <= MAX_DOUBLING_COST_RATIO, best
