"""Fixed-bucket histograms and the Prometheus text exposition."""

import re

import pytest

from repro.metrics.collector import DEFAULT_BUCKETS, Histogram
from repro.metrics.exposition import render_prometheus
from tests.metrics.scrape import parse_exposition


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

    def test_snapshot_independence(self):
        hist = Histogram("h")
        hist.observe(3.0)
        snap = hist.snapshot()
        hist.observe(4.0)
        assert snap.total == 1 and hist.total == 2


def _wall_ms(*samples):
    histogram = Histogram("api.schedule.wall_ms")
    for value in samples:
        histogram.observe(value)
    return histogram


#: counter families as ``GET /metrics`` reads them off their owners
FAMILIES = {
    "oracle.applies": {(): 3},
    "fabric.cells_leased": {(("campaign", "c1"),): 3},
    "fabric.worker.cells_leased": {
        (("campaign", "c1"), ("worker", "w1")): 2,
        (("campaign", "c1"), ("worker", "w2")): 1,
    },
}


class TestExposition:
    def _render(self):
        return render_prometheus(FAMILIES, [_wall_ms(12.0, 700.0)])

    def test_every_line_is_well_formed(self):
        text = self._render()
        assert text.endswith("\n")
        samples = parse_exposition(text)
        assert samples['repro_fabric_cells_leased{campaign="c1"}'] == 3

    def test_names_are_sanitized_and_prefixed(self):
        text = self._render()
        assert "repro_oracle_applies 3" in text
        assert "oracle.applies" not in text

    def test_every_series_of_a_family_renders(self):
        # the labelled series of one family, each under the one TYPE line
        text = self._render()
        assert 'repro_fabric_cells_leased{campaign="c1"} 3' in text
        assert ('repro_fabric_worker_cells_leased{campaign="c1",worker="w1"} 2'
                in text)
        assert ('repro_fabric_worker_cells_leased{campaign="c1",worker="w2"} 1'
                in text)
        assert text.count("# TYPE repro_fabric_worker_cells_leased ") == 1

    def test_histogram_buckets_are_cumulative(self):
        text = self._render()
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'repro_api_schedule_wall_ms_bucket\{le="[^"]+"\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2  # the +Inf bucket holds everything
        assert "repro_api_schedule_wall_ms_count 2" in text

    def test_unlabelled_and_labelled_series_both_render(self):
        # an unlabelled series is one more series of its family: none of
        # a family's counts may be dropped for another's labels
        text = render_prometheus(
            {"fabric.audit_mismatches": {(): 2, (("worker", "w1"),): 1}}, []
        )
        assert "repro_fabric_audit_mismatches 2" in text
        assert 'repro_fabric_audit_mismatches{worker="w1"} 1' in text

    def test_nothing_to_render_renders_empty(self):
        assert render_prometheus({}, []) == ""

    def test_label_values_escaped(self):
        text = render_prometheus({"c": {(("k", 'a"b\\c\nd'),): 1}}, [])
        assert '{k="a\\"b\\\\c\\nd"}' in text
