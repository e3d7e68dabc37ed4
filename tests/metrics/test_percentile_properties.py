"""Edge-case and property tests for percentile.

``percentile`` promises the same linear interpolation as
``statistics.quantiles(..., method="inclusive")`` at the cut points;
randomized series pin that equivalence.  NaN -- as a sample or as the
query -- must be rejected loudly, never silently propagated into a
benchmark table.
"""

import math
import random
import statistics

import pytest

from repro.metrics.collector import Histogram, percentile

NAN = float("nan")


class TestNanRejection:
    def test_percentile_rejects_nan_query(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, 2.0], NAN)

    def test_percentile_rejects_nan_samples(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([NAN], 50.0)
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, NAN], 75.0)

    def test_histogram_rejects_nan_at_record_time(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError, match="NaN"):
            histogram.observe(NAN)
        # the failed call must not have left partial state behind
        assert histogram.total == 0 and histogram.sum == 0.0
        assert not any(histogram.counts)

    def test_infinities_are_not_nan(self):
        assert math.isinf(percentile([float("inf")], 50.0))
        assert math.isinf(percentile([1.0, float("inf")], 100.0))


class TestQuantileEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_statistics_inclusive_at_cut_points(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 60)
        data = sorted(rng.uniform(-1e3, 1e3) for _ in range(size))
        for n in (2, 4, 10, 20):
            cuts = statistics.quantiles(data, n=n, method="inclusive")
            for k, expected in enumerate(cuts, start=1):
                ours = percentile(data, 100.0 * k / n)
                assert ours == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_q(self, seed):
        rng = random.Random(100 + seed)
        data = sorted(rng.gauss(0, 50) for _ in range(rng.randint(1, 40)))
        qs = [rng.uniform(0, 100) for _ in range(50)]
        values = [percentile(data, q) for q in sorted(qs)]
        assert values == sorted(values)

    def test_endpoints_are_min_and_max(self):
        data = [3.0, 1.0, 2.0]
        data.sort()
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 3.0

    def test_median_matches_statistics_median(self):
        for data in ([1.0], [1.0, 2.0], [5.0, 1.0, 3.0], [4.0, 2.0, 8.0, 6.0]):
            data.sort()
            assert percentile(data, 50.0) == pytest.approx(
                statistics.median(data)
            )
