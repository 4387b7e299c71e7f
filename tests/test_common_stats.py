"""Unit + property tests for repro.common.stats."""

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    ExponentialAverage,
    Summary,
    Welford,
    cdf_points,
    mean,
    median,
    percentile,
    stddev,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 0) == 5.0
        assert percentile([5.0], 100) == 5.0

    def test_median_of_two(self):
        assert percentile([1.0, 3.0], 50) == 2.0

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    @given(st.lists(floats, min_size=1, max_size=50), st.floats(0, 100))
    def test_bounded_by_min_max(self, data, q):
        p = percentile(data, q)
        assert min(data) <= p <= max(data)

    @given(st.lists(floats, min_size=1, max_size=50))
    def test_monotone_in_q(self, data):
        qs = [0, 10, 25, 50, 75, 90, 100]
        values = [percentile(data, q) for q in qs]
        assert values == sorted(values)

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        data = [0.3, 1.7, 2.2, 9.1, 4.4, 0.01]
        for q in (5, 25, 50, 75, 95, 99):
            assert percentile(data, q) == pytest.approx(
                float(numpy.percentile(data, q))
            )


class TestBasics:
    def test_mean_and_median(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert median([1.0, 2.0, 9.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stddev(self):
        assert stddev([2.0, 2.0, 2.0]) == 0.0
        assert stddev([0.0, 2.0]) == pytest.approx(1.0)


class TestCdfPoints:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_simple(self):
        points = cdf_points([1.0, 2.0, 2.0, 4.0])
        assert points == [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]

    @given(st.lists(floats, min_size=1, max_size=40))
    def test_last_point_is_one(self, data):
        points = cdf_points(data)
        assert points[-1][1] == pytest.approx(1.0)
        xs = [x for x, _ in points]
        assert xs == sorted(set(xs))
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)


class TestExponentialAverage:
    def test_first_sample_is_value(self):
        ewma = ExponentialAverage(alpha=0.3)
        assert not ewma.initialized
        ewma.update(10.0)
        assert ewma.value == 10.0

    def test_smoothing(self):
        ewma = ExponentialAverage(alpha=0.5)
        ewma.update(0.0)
        ewma.update(1.0)
        assert ewma.value == 0.5

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ExponentialAverage(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialAverage(alpha=1.5)

    def test_value_before_update_raises(self):
        with pytest.raises(ValueError):
            ExponentialAverage().value

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
    def test_stays_within_sample_range(self, samples):
        ewma = ExponentialAverage(alpha=0.4)
        for s in samples:
            ewma.update(s)
        assert min(samples) - 1e-9 <= ewma.value <= max(samples) + 1e-9


class TestWelford:
    @given(st.lists(floats, min_size=1, max_size=60))
    def test_matches_direct_computation(self, data):
        w = Welford()
        w.extend(data)
        assert w.mean == pytest.approx(mean(data), rel=1e-6, abs=1e-6)
        assert w.stddev == pytest.approx(stddev(data), rel=1e-6, abs=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Welford().mean


class TestSummary:
    def test_of(self):
        s = Summary.of([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.max == 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Summary.of([])
