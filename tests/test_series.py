from datetime import date, timedelta

import numpy as np
import pytest

from newslens.series import DatedSeries, pooled_window_mean, window_mean
from newslens.tsstats import _lag_overlap, granger_beta

START = date(2021, 3, 1)


class TestDatedSeries:
    def test_basic_properties(self):
        s = DatedSeries(START, [1.0, 2.0, 3.0], label="x")
        assert len(s) == 3
        assert s.end == date(2021, 3, 3)

    def test_values_read_only(self):
        s = DatedSeries(START, [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DatedSeries(START, [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DatedSeries(START, [1.0, np.nan])
        with pytest.raises(ValueError):
            DatedSeries(START, [np.inf])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            DatedSeries(START, [[1.0], [2.0]])


def slice_sum_reference(sums, counts, window_days):
    """The slice-sum and carry-forward loop, written out as the oracle."""
    values = np.empty(len(sums))
    prev = 0.0
    for i in range(len(sums)):
        lo = max(0, i - window_days + 1)
        c = counts[lo : i + 1].sum()
        if c > 0:
            prev = sums[lo : i + 1].sum() / c
        values[i] = prev
    return values


def bin_pairs(pairs):
    """Per-day sums and counts of dated values, from the first date on."""
    first = min(d for d, _ in pairs)
    n = (max(d for d, _ in pairs) - first).days + 1
    sums = np.zeros(n)
    counts = np.zeros(n)
    for d, v in pairs:
        sums[(d - first).days] += v
        counts[(d - first).days] += 1
    return first, sums, counts


class TestWindowMean:
    def test_hand_case(self):
        out = window_mean(np.array([1, 2, 3, 4, 5]), np.ones(5), 3)
        assert np.allclose(out, [1.0, 1.5, 2.0, 3.0, 4.0])

    def test_window_one_is_identity(self):
        v = np.random.default_rng(0).random(50)
        assert np.array_equal(window_mean(v, np.ones(50), 1), v)

    def test_preserves_shape(self):
        v = np.arange(60.0).reshape(2, 30)
        assert window_mean(v, np.ones(30), 7).shape == (2, 30)
        assert window_mean(v[0], np.ones(30), 7).shape == (30,)

    def test_bounds_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=40)
            out = window_mean(v, np.ones(40), int(rng.integers(1, 10)))
            assert out.min() >= v.min() - 1e-12
            assert out.max() <= v.max() + 1e-12

    def test_constant_unchanged(self):
        assert np.allclose(window_mean(np.full(20, 3.25), np.ones(20), 6), 3.25)

    def test_window_longer_than_series(self):
        assert np.allclose(window_mean(np.array([2.0, 4.0]), np.ones(2), 10), [2.0, 3.0])

    def test_empty_window_carries_forward(self):
        sums = np.array([[4.0, 0.0, 0.0, 9.0], [2.0, 0.0, 0.0, 3.0]])
        out = window_mean(sums, np.array([2, 0, 0, 3]), 2)
        assert out.tolist() == [[2.0, 2.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]]

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window_days"):
            window_mean(np.array([1.0]), np.ones(1), 0)

    def test_counts_must_match_days(self):
        with pytest.raises(ValueError, match="does not match"):
            window_mean(np.ones((2, 3)), np.ones(4), 2)

    @pytest.mark.parametrize("window_days", [1, 3, 7, 9, 15])
    @pytest.mark.parametrize("binned", [False, True])
    def test_matches_slice_sum_loop_bit_for_bit(self, window_days, binned):
        rng = np.random.default_rng(window_days)
        for _ in range(10):
            n = int(rng.integers(1, 120))
            if binned:
                # several values on some days, none on others
                days = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
                counts = np.bincount(days, minlength=n)
                sums = np.stack(
                    [np.bincount(days, weights=rng.normal(0, 10, days.size), minlength=n)
                     for _ in range(4)]
                )
            else:
                counts = np.ones(n)
                sums = rng.normal(0, 10, size=(4, n))
            out = window_mean(sums, counts, window_days)
            for row, got in zip(sums, out):
                expected = slice_sum_reference(row, counts, window_days)
                assert got.tobytes() == expected.tobytes()
                assert window_mean(row, counts, window_days).tobytes() == expected.tobytes()


class TestPooledWindowMean:
    def test_hand_case_carries_forward(self):
        pairs = [(START, 1.0), (START, 3.0), (START + timedelta(days=4), 6.0)]
        out = pooled_window_mean(pairs, 2, label="x")
        assert out.start == START and out.label == "x"
        assert out.values.tolist() == [2.0, 2.0, 2.0, 2.0, 6.0]

    @pytest.mark.parametrize("window_days", [1, 3, 7, 15])
    def test_matches_slice_sum_loop_bit_for_bit(self, window_days):
        rng = np.random.default_rng(window_days)
        for _ in range(20):
            # steps of 0 (same day) up to well past the window leave gaps
            steps = rng.integers(0, 2 * window_days + 3, size=int(rng.integers(1, 80)))
            days = [START + timedelta(days=int(k)) for k in np.cumsum(steps)]
            pairs = [(d, float(v)) for d, v in zip(days, rng.normal(0, 10, size=len(days)))]
            rng.shuffle(pairs)
            first, sums, counts = bin_pairs(pairs)
            expected = slice_sum_reference(sums, counts, window_days)
            out = pooled_window_mean(iter(pairs), window_days)
            assert out.start == first
            assert out.values.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="window_days"):
            pooled_window_mean([(START, 1.0)], 0)
        with pytest.raises(ValueError, match="no dated values"):
            pooled_window_mean([], 3)


def lag_pairs(x, y, lag):
    xi, yi = _lag_overlap(x, y, lag)
    return list(x.values[xi]), list(y.values[yi])


class TestAlign:
    def test_overlap(self):
        x = DatedSeries(date(2021, 3, 1), [1, 2, 3, 4])
        y = DatedSeries(date(2021, 3, 3), [30, 40, 50])
        assert lag_pairs(x, y, 0) == ([3, 4], [30, 40])

    def test_disjoint(self):
        x = DatedSeries(date(2021, 3, 1), [1])
        y = DatedSeries(date(2021, 4, 1), [2])
        assert lag_pairs(x, y, 0) == ([], [])
        assert lag_pairs(y, x, 0) == ([], [])
        assert lag_pairs(x, y, 40) == ([], [])
        # x ends before y starts, with y longer than the gap
        x = DatedSeries(date(2021, 3, 1), np.arange(5.0))
        y = DatedSeries(date(2021, 3, 8), np.arange(10.0))
        assert lag_pairs(x, y, 0) == ([], [])

    def test_lagged_pairs(self):
        x = DatedSeries(date(2021, 3, 1), [1, 2, 3, 4, 5])
        y = DatedSeries(date(2021, 3, 1), [10, 20, 30, 40, 50])
        # pairs (x(t), y(t+2))
        assert lag_pairs(x, y, 2) == ([1, 2, 3], [30, 40, 50])

    def test_lag_zero_matches_align(self):
        # At lag 0 the pairs are the two series on their common dates.
        x = DatedSeries(date(2021, 3, 1), [1, 2, 3])
        y = DatedSeries(date(2021, 3, 2), [5, 6, 7])
        assert lag_pairs(x, y, 0) == ([2, 3], [5, 6])

    def test_negative_lag_rejected(self):
        x = DatedSeries(date(2021, 3, 1), np.arange(30.0))
        with pytest.raises(ValueError, match="lag must be >= 0"):
            granger_beta(x, x, -1)
