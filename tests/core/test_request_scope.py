"""Request-scoped oracle accounting (``ScheduleResult.oracle_stats``).

A request reports what *its* oracles counted: not what other threads did
meanwhile, not less because the collector freed unrelated oracles half
way, and at a cost that does not grow with the oracles alive in the
process.
"""

import gc
import sys
import threading
import weakref

import pytest

import repro.core.api as core_api
import repro.core.oracle as oracle_module
from repro.core.api import schedule_update
from repro.core.hardness import reversal_instance, sawtooth_instance
from repro.core.oracle import (
    OracleStats,
    RequestScope,
    SafetyOracle,
    aggregate_stats,
    clear_registry,
    oracle_for,
)
from repro.core.verify import Property
from repro.errors import UpdateModelError


def _worked_oracles(count):
    """``count`` problems whose shared oracle has counted something."""
    problems = [reversal_instance(6) for _ in range(count)]
    for problem in problems:
        oracle_for(problem, (Property.SLF,)).round_is_safe(set(), {2})
    return problems


def _reference(n=10):
    """Counters of one greedy-SLF request on a fresh reversal instance."""
    stats = schedule_update(reversal_instance(n), "greedy-slf", verify=True).oracle_stats
    assert stats["applies"] > 0
    return stats


class TestScopedToTheRequest:
    def test_unrelated_live_oracles_do_not_show(self):
        want = _reference()
        bystanders = _worked_oracles(500)
        assert _reference() == want
        del bystanders

    def test_collection_mid_request_loses_nothing(self, monkeypatch):
        # the parent summed every live oracle before and after: garbage
        # freed in between made ``after < before`` and the delta vanished
        want = _reference()
        real_verify = core_api.verify_schedule

        def collecting_verify(*args, **kwargs):
            gc.collect()
            return real_verify(*args, **kwargs)

        monkeypatch.setattr(core_api, "verify_schedule", collecting_verify)
        gc.disable()
        try:
            garbage = _worked_oracles(50)
            for problem in garbage:
                oracle_for(problem, (Property.SLF,)).stats.applies += 1000
            garbage.append(garbage)  # a cycle: only the collector frees it
            del garbage, problem
            assert _reference() == want
        finally:
            gc.enable()

    def test_aggregate_stats_is_off_the_request_path(self, monkeypatch):
        def boom():
            raise AssertionError("aggregate_stats() called by a request")

        monkeypatch.setattr(oracle_module, "aggregate_stats", boom)
        # also where a ``from ... import`` would have bound it
        monkeypatch.setattr(core_api, "aggregate_stats", boom, raising=False)
        assert _reference()["applies"] > 0

    def test_accounting_reads_as_many_stats_however_many_live(self, monkeypatch):
        # a request's cost must not grow with the oracles alive in the
        # process: every read of a counter set in the oracle module goes
        # through ``vars``, so those reads are what is counted
        reads, counts, bystanders = [], [], []

        def counting_vars(obj):
            reads.append(isinstance(obj, OracleStats))
            return vars(obj)

        monkeypatch.setattr(oracle_module, "vars", counting_vars, raising=False)
        for live in (0, 500, 1000):
            bystanders += _worked_oracles(live - len(bystanders))
            reads.clear()
            gc.disable()
            try:
                _reference()
            finally:
                gc.enable()
            counts.append(sum(reads))
        assert counts[0] == counts[1] == counts[2] > 0, counts

    def test_problems_dropped_before_the_request_cost_it_no_reads(
        self, monkeypatch
    ):
        # a dropped problem's oracle dies at once and its counters are
        # folded then, so the garbage of earlier requests does not show
        # in the cost of the next one
        reads, counts = [], []

        def counting_vars(obj):
            reads.append(isinstance(obj, OracleStats))
            return vars(obj)

        monkeypatch.setattr(oracle_module, "vars", counting_vars, raising=False)
        for dropped in (0, 50):
            _worked_oracles(dropped)  # built, worked and dropped
            reads.clear()
            gc.disable()
            try:
                _reference()
            finally:
                gc.enable()
            counts.append(sum(reads))
        assert counts[0] == counts[1] > 0, counts

    def test_explicit_oracle_is_accounted(self):
        problem = reversal_instance(8)
        oracle = SafetyOracle(problem, (Property.SLF,))  # never registered
        result = schedule_update(problem, "greedy-slf", oracle=oracle)
        assert result.oracle_stats == {
            key: value for key, value in oracle.stats.as_dict().items() if value
        }

    def test_warm_oracle_reports_the_delta_not_the_total(self):
        problem = reversal_instance(8)
        first = schedule_update(problem, "greedy-slf").oracle_stats
        second = schedule_update(problem, "greedy-slf").oracle_stats
        total = oracle_for(problem, (Property.SLF,)).stats.as_dict()
        for key in set(first) | set(second):
            assert first.get(key, 0) + second.get(key, 0) == total[key]

    def test_nested_requests_roll_up(self):
        problem = reversal_instance(8)
        with RequestScope() as outer:
            inner = schedule_update(problem, "greedy-slf").oracle_stats
            schedule_update(sawtooth_instance(9, block=3), "peacock")
            assert outer.deltas()["applies"] > inner["applies"]
        assert oracle_module._SCOPE.get() is None

    def test_two_threads_each_report_their_own_counters(self):
        builders = (
            lambda: reversal_instance(12),
            lambda: sawtooth_instance(13, block=3),
        )
        want = [
            schedule_update(build(), "greedy-slf", verify=True).oracle_stats
            for build in builders
        ]
        assert want[0] != want[1]
        rounds = 40
        barrier = threading.Barrier(2)
        got = [[], []]

        def client(slot):
            for _ in range(rounds):
                barrier.wait(timeout=30)
                got[slot].append(
                    schedule_update(
                        builders[slot](), "greedy-slf", verify=True
                    ).oracle_stats
                )

        threads = [threading.Thread(target=client, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == [[want[0]] * rounds, [want[1]] * rounds]


class TestNoScopeLeftBehind:
    def test_failed_request_closes_its_scope(self, monkeypatch):
        def exploding(*args, **kwargs):
            raise RuntimeError("verifier blew up")

        monkeypatch.setattr(core_api, "verify_schedule", exploding)
        problem = reversal_instance(6)
        oracle = oracle_for(problem, (Property.SLF,))
        grave = weakref.ref(oracle)
        with pytest.raises(RuntimeError):
            schedule_update(problem, "greedy-slf", verify=True)
        assert oracle_module._SCOPE.get() is None
        del oracle, problem
        gc.collect()
        assert grave() is None

    def test_refused_request_opens_none(self):
        with pytest.raises(UpdateModelError):
            schedule_update(reversal_instance(6), "wayup")
        assert oracle_module._SCOPE.get() is None


class TestAggregateIsMonotone:
    def test_dead_oracles_are_retired_not_forgotten(self):
        clear_registry()
        problems = _worked_oracles(5)
        before = aggregate_stats().as_dict()
        assert before["memo_misses"] == 5
        del problems
        gc.collect()
        assert aggregate_stats().as_dict() == before
        survivor = _worked_oracles(1)
        assert aggregate_stats().memo_misses == 6
        clear_registry()
        assert aggregate_stats() == OracleStats()
        del survivor
        gc.collect()  # armed before the clearing: retires nothing
        assert aggregate_stats() == OracleStats()

    def test_deaths_on_other_threads_never_lower_the_total(self):
        # oracles die on worker threads, their callbacks often meeting the
        # lock taken by a sum on the scraping thread; every scrape reads at
        # least what the one before it did, and the last reads every death
        workers, each = 4, 150
        start = aggregate_stats().memo_misses
        scrapes, done = [], threading.Event()

        def churn():
            for _ in range(each):
                _worked_oracles(1)  # built, counted once, dropped

        def scrape():
            while not done.is_set():
                scrapes.append(aggregate_stats().memo_misses)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(workers)]
            scraper = threading.Thread(target=scrape)
            for thread in [scraper, *threads]:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            done.set()
            scraper.join(timeout=60)
            assert not scraper.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert scrapes == sorted(scrapes) and len(scrapes) > 1
        assert aggregate_stats().memo_misses == start + workers * each

    def test_as_dict_is_the_field_copy(self):
        from dataclasses import asdict

        stats = oracle_for(reversal_instance(6), (Property.SLF,)).stats
        stats.applies += 3
        assert stats.as_dict() == asdict(stats)
        assert list(stats.as_dict()) == list(asdict(stats))
