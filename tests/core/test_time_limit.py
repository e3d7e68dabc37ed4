"""Tests for the polled per-thread deadline (``repro.core.deadline``)."""

import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import deadline
from repro.core.api import schedule_update, time_limit
from repro.core.deadline import check_deadline
from repro.core.hardness import crossing_clash_instance, reversal_instance
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import SafetyOracle, clear_registry
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.errors import ExactSearchBudgetError, ScheduleTimeoutError
from repro.topology.random_graphs import random_update_instance


def _poll_for(seconds: float) -> None:
    """A loop that behaves: it looks at the deadline as it goes."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        check_deadline()


class _PollClock:
    """Stands in for a module's ``time``: reads 0.0 until it has been read
    ``expires_after`` times after arming, then a time past any limit.
    Each read zeroes ``since``, the work counted since the last poll."""

    def __init__(self, expires_after):
        self.reads, self.expires_after = -1, expires_after  # -1: arming
        self.since = {"probes": 0, "rounds": 0}
        self.most = dict(self.since)

    def monotonic(self):
        self.reads += 1
        self.since = dict.fromkeys(self.since, 0)
        return 0.0 if self.reads <= self.expires_after else 1e9


@pytest.fixture(autouse=True)
def signals_untouched():
    """No test here may leave a trace in the process's alarm state."""
    handler = signal.getsignal(signal.SIGALRM)
    yield
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestTimeLimit:
    def test_expiry_raises(self):
        # ... at the next poll, not before and not by itself
        with time_limit(0.02):
            check_deadline()  # in time: nothing
            time.sleep(0.05)  # nothing interrupts code that does not poll
            with pytest.raises(ScheduleTimeoutError, match="0.02"):
                check_deadline()

    def test_none_is_a_noop(self):
        with time_limit(None):
            check_deadline()
        with time_limit(0.0):
            with time_limit(None):  # sets no limit, lifts none either
                with pytest.raises(ScheduleTimeoutError):
                    check_deadline()

    def test_completion_disarms(self):
        with pytest.raises(ScheduleTimeoutError):
            with time_limit(0.0):
                check_deadline()
        check_deadline()  # the limit went with its block
        with time_limit(5.0):
            pass
        check_deadline()

    def test_never_arms_an_alarm(self):
        with time_limit(0.01):
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            time.sleep(0.03)  # a SIGALRM would land here


class TestNesting:
    def test_inner_expiry_keeps_outer_armed(self):
        with time_limit(30.0):
            with pytest.raises(ScheduleTimeoutError) as excinfo:
                with time_limit(0.02):
                    _poll_for(5.0)
            assert "0.02" in str(excinfo.value)
            check_deadline()  # the outer limit has 30 s left

    def test_outer_deadline_wins_inside_inner(self):
        with pytest.raises(ScheduleTimeoutError) as excinfo:
            with time_limit(0.03):
                with time_limit(30.0):
                    _poll_for(5.0)
        assert "0.03" in str(excinfo.value)

    def test_inner_completion_restores_outer_remaining(self):
        from repro.core.deadline import _LOCAL

        with time_limit(30.0):
            armed = (_LOCAL.deadline, _LOCAL.seconds)
            with time_limit(1.0):
                assert _LOCAL.seconds == 1.0 and _LOCAL.deadline < armed[0]
            assert (_LOCAL.deadline, _LOCAL.seconds) == armed
            with time_limit(60.0):  # a later inner deadline never extends
                assert (_LOCAL.deadline, _LOCAL.seconds) == armed
        assert (_LOCAL.deadline, _LOCAL.seconds) == (None, None)

    def test_outer_still_fires_after_inner_ran(self):
        with pytest.raises(ScheduleTimeoutError) as excinfo:
            with time_limit(0.05):
                with time_limit(0.01):
                    pass  # completes inside both budgets
                _poll_for(5.0)  # now the outer limit must still be live
        assert "0.05" in str(excinfo.value)

    def test_two_level_nesting_both_complete(self):
        with time_limit(10.0):
            with time_limit(5.0):
                with time_limit(2.0):
                    check_deadline()
        check_deadline()


def _in_thread(body):
    """Run ``body`` on a fresh non-main thread; its return value or error."""
    outcome = {}

    def run():
        try:
            outcome["value"] = body()
        except BaseException as exc:  # noqa: BLE001 - handed to the asserting thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcome


class TestThreadSafety:
    def test_works_off_the_main_thread(self):
        def body():
            with time_limit(0.02):
                _poll_for(5.0)

        assert isinstance(_in_thread(body).get("error"), ScheduleTimeoutError)

    def test_threads_hold_independent_deadlines(self):
        armed = threading.Event()
        checked = threading.Event()

        def expired():
            with time_limit(0.0):
                armed.set()
                assert checked.wait(timeout=30)
                check_deadline()

        thread_outcome = {}
        thread = threading.Thread(
            target=lambda: thread_outcome.update(_in_thread(expired))
        )
        thread.start()
        assert armed.wait(timeout=30)
        # another thread's limit has run out; this one has none ...
        check_deadline()
        with time_limit(30.0):  # ... and its own is its own
            check_deadline()
            checked.set()
            thread.join(timeout=60)
            check_deadline()
        assert isinstance(thread_outcome.get("error"), ScheduleTimeoutError)

    @pytest.mark.parametrize(
        "spec, problem, fraction",
        [
            ("optimal:rlf", lambda: crossing_clash_instance(24), 0.1),
            ("greedy-slf", lambda: reversal_instance(20000), 0.5),
            # a quarter in, Peacock is packing its big backward round; the
            # one probe after it re-validates ~20,000 blocked edges inside
            # the oracle, a third of the run that no poll can interrupt
            ("peacock", lambda: reversal_instance(20000), 0.25),
        ],
    )
    def test_request_bound_holds_on_a_worker_thread(self, spec, problem, fraction):
        # the limit is a fraction of what the request takes on this
        # machine (0.13 s / 1.0 s / 0.75 s where this was written), so the
        # test asks the same question on a slower or busier one; that run
        # has a limit it cannot reach, so that its polls read the clock.
        # How soon the limit is noticed is held by the poll counts of
        # ``test_request_polls_every_few_probes_and_every_verify_round``
        # (a wall bound here flaked on a busy host).
        started = time.monotonic()
        schedule_update(problem(), spec, verify=True, timeout_s=3600.0)
        limit = round(fraction * (time.monotonic() - started), 3)
        instance = problem()

        def body():
            with pytest.raises(ScheduleTimeoutError):
                schedule_update(instance, spec, verify=True, timeout_s=limit)

        outcome = _in_thread(body)
        assert "error" not in outcome, outcome

    def test_exact_search_budget_keeps_its_interval(self, monkeypatch):
        # the search's own clock, read once to arm ``time_limit_s`` and
        # then once per poll, runs out half way through the solve; how
        # soon the limit is noticed is held by the poll count below
        from repro.core import bnb

        def run(expires_after):
            clock = _PollClock(expires_after)
            monkeypatch.setattr(bnb, "time", clock)
            problem = crossing_clash_instance(24)
            outcome = _in_thread(
                lambda: schedule_update(problem, "optimal:rlf?time_limit_s=1")
            )
            return clock, outcome.get("error")

        clock, error = run(expires_after=float("inf"))
        assert error is None, error
        polls = clock.reads
        assert polls > 2
        clock, error = run(expires_after=polls // 2)
        assert isinstance(error, ExactSearchBudgetError), error
        assert clock.reads == polls // 2 + 1
        assert error.lower >= 1 and error.upper is not None
        assert error.lower < error.upper

    @pytest.mark.parametrize(
        "problem, properties",
        [
            # the solve above: 4,096 candidate rounds, no nogood learned
            (lambda: crossing_clash_instance(24), (Property.RLF,)),
            # nogoods learned: the enumeration jumps over refuted rounds
            (
                lambda: UpdateProblem(*random_update_instance(16, seed=5)[:2]),
                (Property.SLF,),
            ),
        ],
    )
    def test_exact_search_polls_every_few_loop_steps(
        self, problem, properties, monkeypatch
    ):
        """Count twin of the wall test above: the round enumeration looks
        at the clock at least once every ``_DEADLINE_POLL_EVERY`` loop
        steps, and a jump over rounds a nogood refutes is a step, so no
        run of refuted rounds puts the poll off."""
        from repro.core import bnb, optimal

        every = 8
        counts = SimpleNamespace(polls=0, expansions=0)
        steps = []  # per enumerating state, the loop steps it took

        class Steps(list):
            # the loop tests its candidate against the state's cores
            # once per step, a jump's step included
            def __iter__(self):
                steps[self.index] += 1
                return super().__iter__()

        real_cores = optimal._MaskSearch.cores

        def cores(search, state, safe_mask, start=0):
            found = real_cores(search, state, safe_mask, start)
            if start:  # cores learned since: appended to the state's list
                return found
            listed = Steps(found)
            listed.index = len(steps)
            steps.append(0)
            return listed

        def check_deadline():
            counts.polls += 1

        def tracing_enabled():
            # with a milestone every expansion, each one asks this once
            counts.expansions += 1
            return False

        monkeypatch.setattr(bnb, "_DEADLINE_POLL_EVERY", every)
        monkeypatch.setattr(bnb, "check_deadline", check_deadline)
        monkeypatch.setattr(bnb, "_MILESTONE_EVERY", 1)
        monkeypatch.setattr(
            bnb, "obs", SimpleNamespace(tracing_enabled=tracing_enabled)
        )
        monkeypatch.setattr(optimal._MaskSearch, "cores", cores)
        clear_registry()
        minimal_round_schedule(problem(), properties)
        # one look per expansion, and one per ``every`` steps of its loop
        owed = sum(taken // every for taken in steps)
        assert owed > 0
        assert counts.polls >= counts.expansions + owed

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("optimal:rlf", lambda: crossing_clash_instance(24)),
            ("greedy-slf", lambda: reversal_instance(400)),
            ("peacock", lambda: reversal_instance(400)),
        ],
    )
    def test_request_polls_every_few_probes_and_every_verify_round(
        self, spec, problem, monkeypatch
    ):
        """Count twin of ``test_request_bound_holds_on_a_worker_thread``, under the ``deadline.time``
        seam: the clock is read only by polls (and once to arm the
        limit), so a clock that runs out after poll ``k`` must stop the
        request at poll ``k + 1``; and between two polls at most
        ``_DEADLINE_POLL_EVERY`` packer probes and one verify round run."""
        from repro.core import packing, verify

        def counted(kind, real):
            def wrapper(*args, **kwargs):
                clock = deadline.time
                clock.since[kind] += 1
                clock.most[kind] = max(clock.most[kind], clock.since[kind])
                return real(*args, **kwargs)

            return wrapper

        def run(expires_after):
            clock = _PollClock(expires_after)
            monkeypatch.setattr(deadline, "time", clock)
            instance = problem()
            outcome = _in_thread(
                lambda: schedule_update(instance, spec, verify=True, timeout_s=1.0)
            )
            return clock, outcome.get("error")

        monkeypatch.setattr(
            SafetyOracle,
            "try_apply_watched",
            counted("probes", SafetyOracle.try_apply_watched),
        )
        monkeypatch.setattr(verify, "_check_union", counted("rounds", verify._check_union))
        clock, error = run(expires_after=float("inf"))
        assert error is None, error
        assert clock.most["rounds"] == 1
        assert clock.most["probes"] <= packing._DEADLINE_POLL_EVERY
        polls = clock.reads
        assert polls > 2
        for expires_after in (1, polls // 2, polls - 1):
            clock, error = run(expires_after)
            assert isinstance(error, ScheduleTimeoutError), error
            assert clock.reads == expires_after + 1
