"""Fixed-bucket histograms and the Prometheus text exposition."""

import re

import pytest

from repro.metrics.collector import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsCollector,
)
from repro.metrics.exposition import render_prometheus

#: A non-comment exposition line: metric name, optional labels, a value.
_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-?[0-9.e+-]+)$"
)


class TestHistogram:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_observe_counts_and_overflow(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # bisect_left: a sample equal to a bound lands in that bucket
        assert hist.counts == [2, 1, 1]
        assert hist.total == 4
        assert hist.sum == pytest.approx(106.5)

    def test_quantile_tracks_exact_percentile_within_a_bucket(self):
        hist = Histogram("h")
        samples = [float(i) for i in range(1, 101)]
        for value in samples:
            hist.observe(value)
        # the estimate may be off by at most the containing bucket width
        for q, exact in ((0.5, 50.5), (0.95, 95.05), (0.99, 99.01)):
            estimate = hist.quantile(q)
            width = next(
                hi - lo
                for lo, hi in zip((0.0,) + DEFAULT_BUCKETS, DEFAULT_BUCKETS)
                if estimate <= hi
            )
            assert abs(estimate - exact) <= width

    def test_quantile_validation(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError, match="empty"):
            hist.quantile(0.5)

    def test_as_dict_and_snapshot_independence(self):
        hist = Histogram("h")
        hist.observe(3.0)
        snap = hist.snapshot()
        hist.observe(4.0)
        assert snap.total == 1 and hist.total == 2
        data = hist.as_dict()
        assert data["count"] == 2
        assert {"p50", "p95", "p99"} <= set(data)


class TestExposition:
    def _collector(self):
        collector = MetricsCollector()
        collector.increment("fabric.leases_granted", 3)
        collector.increment("fabric.cells_leased", 2, labels={"worker": "w1"})
        collector.increment("fabric.cells_leased", 1, labels={"worker": "w2"})
        collector.observe("fabric.cell_wall_ms", 12.0)
        collector.observe("fabric.cell_wall_ms", 700.0)
        return collector

    def test_every_line_is_well_formed(self):
        text = render_prometheus(self._collector())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                assert re.match(r"^# TYPE repro_[a-zA-Z0-9_:]+ "
                                r"(counter|histogram)$", line)
            else:
                assert _LINE.match(line), f"malformed line: {line!r}"

    def test_names_are_sanitized_and_prefixed(self):
        text = render_prometheus(self._collector())
        assert "repro_fabric_leases_granted 3" in text
        assert "fabric.leases" not in text

    def test_labeled_counters_render_per_label(self):
        text = render_prometheus(self._collector())
        assert 'repro_fabric_cells_leased{worker="w1"} 2' in text
        assert 'repro_fabric_cells_leased{worker="w2"} 1' in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._collector())
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'repro_fabric_cell_wall_ms_bucket\{le="[^"]+"\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2  # the +Inf bucket holds everything
        assert "repro_fabric_cell_wall_ms_count 2" in text

    def test_extra_counters_spliced_without_double_counting(self):
        collector = self._collector()
        text = render_prometheus(
            collector,
            extra_counters={
                "oracle.memo_hits": 7,
                "fabric.leases_granted": 999,  # collides: collector wins
            },
        )
        assert "repro_oracle_memo_hits 7" in text
        assert "repro_fabric_leases_granted 3" in text
        assert "999" not in text

    def test_empty_collector_renders_empty(self):
        assert render_prometheus(MetricsCollector()) == ""

    def test_label_values_escaped(self):
        collector = MetricsCollector()
        collector.increment("c", labels={"k": 'a"b\\c\nd'})
        text = render_prometheus(collector)
        assert '{k="a\\"b\\\\c\\nd"}' in text
