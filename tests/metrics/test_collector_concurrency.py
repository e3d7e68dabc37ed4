"""Thread-safety regression tests for the process-wide collector.

The fabric coordinator, worker heartbeat threads, and REST handler
threads all bump ``global_collector()`` concurrently; an unlocked
``dict.setdefault``/read-modify-write cycle loses increments under
contention.  These tests hammer every mutating method from threads and
assert nothing is lost.
"""

import threading

from repro.metrics.collector import MetricsCollector

THREADS = 8
ROUNDS = 2000


def _hammer(fn):
    barrier = threading.Barrier(THREADS)

    def work(index):
        barrier.wait()  # maximize interleaving
        for i in range(ROUNDS):
            fn(index, i)

    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestConcurrentMutation:
    def test_increment_loses_nothing(self):
        collector = MetricsCollector()
        _hammer(lambda index, i: collector.increment("hits"))
        assert collector.counter("hits") == THREADS * ROUNDS

    def test_labeled_increment_folds_exactly(self):
        collector = MetricsCollector()
        _hammer(lambda index, i: collector.increment(
            "cells", labels={"worker": f"w{index}"}
        ))
        assert collector.counter("cells") == THREADS * ROUNDS
        per_label = collector.labeled_counters("cells")
        assert len(per_label) == THREADS
        assert all(v == ROUNDS for v in per_label.values())

    def test_observe_loses_nothing(self):
        collector = MetricsCollector()
        _hammer(lambda index, i: collector.observe("lat", float(i % 7)))
        assert collector.histogram("lat").total == THREADS * ROUNDS
