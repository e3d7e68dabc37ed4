"""Tests for the discrete-event simulator and RNG streams."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import ScheduledEvent
from repro.sim.random_source import RandomStreams, derive_seed
from repro.sim import simulator as simulator_mod
from repro.sim.simulator import Simulator


class TestEventOrder:
    def test_ordering_by_time(self, sim):
        fired = []
        for time in (5.0, 1.0, 3.0):
            sim.schedule_at(time, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_fifo_for_equal_times(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b"]

    def test_cancellation(self, sim):
        fired = []
        event = sim.schedule_at(1.0, fired.append, 1)
        event.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert fired == [] and sim.now == 0.0

    def test_run_until_skips_a_cancelled_head(self, sim):
        fired = []
        first = sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        first.cancel()
        sim.run(until=1.5)
        assert fired == [] and sim.now == 1.5 and sim.pending_events == 1
        sim.run()
        assert fired == [2] and sim.now == 2.0


class TestSimulator:
    def test_runs_in_time_order(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 5.0

    def test_nested_scheduling(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_run_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancel_via_simulator(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert not fired

    def test_runaway_guard(self, sim, monkeypatch):
        monkeypatch.setattr(simulator_mod, "MAX_EVENTS", 100)

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="events"):
            sim.run()

    def test_timers_alone_do_not_keep_a_run_going(self, sim):
        fired = []
        sim.schedule_timer(5.0, fired.append, "timer")
        sim.schedule(2.0, fired.append, "event")
        sim.run()
        assert fired == ["event"] and sim.now == 2.0
        sim.run(until=10.0)
        assert fired == ["event", "timer"] and sim.pending_events == 0

    def test_a_run_passing_a_timer_fires_it_in_order(self, sim):
        fired = []
        sim.schedule_timer(5.0, fired.append, "timer")
        sim.schedule(7.0, fired.append, "event")
        cancelled = sim.schedule_timer(6.0, fired.append, "cancelled")
        sim.cancel(cancelled)
        sim.run()
        assert fired == ["timer", "event"] and sim.now == 7.0

    def test_run_until_an_instant_fires_exactly_that_instant(self, sim):
        fired = []
        for time in (1.0, 1.0, 2.0):
            sim.schedule_at(time, fired.append, time)
        sim.run(until=1.0)
        assert fired == [1.0, 1.0] and sim.now == 1.0
        sim.run(until=1.0)
        assert fired == [1.0, 1.0] and sim.pending_events == 1

    def test_counters(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_processed == 2


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        a = RandomStreams(42).stream("x").random()
        b = RandomStreams(42).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("a")
        b = streams.stream("b")
        assert a is not b
        assert a.random() != b.random()

    def test_stream_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_consumption_isolation(self):
        # draining stream "a" must not change what "b" yields
        one = RandomStreams(7)
        for _ in range(100):
            one.stream("a").random()
        isolated = one.stream("b").random()
        two = RandomStreams(7)
        assert two.stream("b").random() == isolated

    def test_fork_differs(self):
        base = RandomStreams(3)
        fork = base.fork("child")
        assert base.stream("x").random() != fork.stream("x").random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestEventCancellation:
    def test_cancel_returns_true_once(self):
        event = Simulator().schedule_at(1.0, lambda: None)
        assert event.pending
        assert event.cancel() is True
        assert event.cancel() is False  # second retraction is a no-op
        assert not event.pending

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert event.fired and not event.pending
        assert event.cancel() is False

    def test_pending_is_live_count(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule_at(float(i), fired.append, float(i)) for i in range(5)]
        assert sim.pending_events == 5
        events[1].cancel()
        events[3].cancel()
        assert sim.pending_events == 3  # counted at cancel time, not at pop time
        sim.run()
        assert fired == [0.0, 2.0, 4.0]
        assert sim.pending_events == 0

    def test_simulator_cancel_returns_retraction_verdict(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5.0, fired.append, "x")
        assert sim.cancel(event) is True
        assert sim.cancel(event) is False
        sim.run()
        assert fired == [] and sim.pending_events == 0

    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.fired and not drop.fired

    def test_cancellation_preserves_same_instant_order(self):
        # retracting one of several same-instant events must not disturb
        # the deterministic (time, seq) order of the survivors
        def run(cancel_index):
            sim = Simulator()
            fired = []
            events = [
                sim.schedule(2.0, fired.append, tag) for tag in "abcde"
            ]
            events[cancel_index].cancel()
            sim.run()
            return fired

        assert run(2) == ["a", "b", "d", "e"]
        assert run(2) == ["a", "b", "d", "e"]  # identical across runs
        assert run(0) == ["b", "c", "d", "e"]
        assert run(4) == ["a", "b", "c", "d"]

    def test_cancel_from_within_callback(self):
        # a callback retracting a later event beats the heap to it
        sim = Simulator()
        fired = []
        later = sim.schedule(3.0, fired.append, "later")
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert fired == []
        assert sim.now == 1.0  # the cancelled tail never advanced the clock


def _never_compared(self, other):
    raise AssertionError("the heap compared two events")


class TestQueueOrderAgainstModel:
    """Random schedule / cancel / run-until interleavings against a sorted
    list."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 1.0, 3.0])),
            st.tuples(st.just("cancel"), st.integers(0, 40)),
            st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0])),
        ),
        max_size=80,
    )

    @settings(max_examples=300, deadline=None)
    @given(OPS)
    def test_fires_in_time_then_scheduling_order(self, ops):
        sim = Simulator()
        fired: list = []
        handles: list = []
        pending: dict = {}  # id -> (time, id); ids grow in scheduling order

        def run_until(at):
            due = sorted(entry for entry in pending.values() if entry[0] <= at)
            start, before = len(fired), sim.now
            sim.run(until=at)
            assert fired[start:] == [ident for _, ident in due]
            for _, ident in due:
                del pending[ident]
                assert not handles[ident].pending
            assert sim.now == (at if pending else due[-1][0] if due else before)

        # a lambda per event and a dict argument: neither can be ordered,
        # and the events themselves refuse to be
        with mock.patch.object(ScheduledEvent, "__lt__", _never_compared):
            for op, arg in ops:
                if op == "cancel":
                    if handles:
                        ident = arg % len(handles)
                        assert handles[ident].cancel() is (ident in pending)
                        pending.pop(ident, None)
                elif op == "run":
                    run_until(sim.now + arg)
                else:
                    ident = len(handles)
                    callback = lambda payload: fired.append(payload["id"])  # noqa: E731
                    at = sim.now + arg
                    if op == "schedule":
                        handles.append(sim.schedule(arg, callback, {"id": ident}))
                    else:
                        handles.append(sim.schedule_at(at, callback, {"id": ident}))
                    pending[ident] = (at, ident)
                assert sim.pending_events == len(pending)
            run_until(float("inf"))
            assert sim.pending_events == 0
        cancelled = [i for i, handle in enumerate(handles) if handle.cancelled]
        assert sorted(fired + cancelled) == list(range(len(handles)))
        assert not set(fired) & set(cancelled)

    def test_equal_times_never_reach_the_event(self):
        sim = Simulator()
        order = []
        with mock.patch.object(ScheduledEvent, "__lt__", _never_compared):
            for index in range(50):
                sim.schedule_at(1.0, lambda payload: order.append(payload["n"]), {"n": index})
            sim.run()
        assert order == list(range(50))
