import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
import scipy.stats

from newslens import tsstats
from newslens.series import DatedSeries
from newslens.tsstats import (
    _PERM_CHUNK,
    adf_test,
    first_difference,
    granger_beta,
    granger_scan,
    lagged_correlation_scan,
    linear_detrend,
    spearman,
)

START = date(2021, 3, 1)


def series(values, start=START, label=""):
    return DatedSeries(start, np.asarray(values, dtype=float), label=label)


def brute_force_spearman(x, y):
    """O(n^2) mid-rank oracle: count smaller values, average over ties."""

    def ranks(v):
        out = []
        for a in v:
            below = sum(1 for b in v if b < a)
            tied = sum(1 for b in v if b == a)
            # mean of ranks below+1 .. below+tied
            out.append(below + (tied + 1) / 2.0)
        return out

    rx = ranks(list(x))
    ry = ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    xc = [a - mx for a in rx]
    yc = [a - my for a in ry]
    sxy = sum(a * b for a, b in zip(xc, yc))
    sxx = sum(a * a for a in xc)
    syy = sum(b * b for b in yc)
    return sxy / math.sqrt(sxx * syy)


class TestLinearDetrend:
    def test_exact_line_vanishes(self):
        t = np.arange(20, dtype=float)
        out = linear_detrend(series(2 * t + 3))
        assert np.allclose(out.values, 0.0, atol=1e-10)

    def test_zero_mean_zero_slope_after(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            out = linear_detrend(series(rng.random(40) * 10 + trial))
            assert abs(out.values.mean()) < 1e-9
            slope = np.polyfit(np.arange(40.0), out.values, 1)[0]
            assert abs(slope) < 1e-9

    def test_quadratic_matches_polyfit_residuals(self):
        t = np.arange(10, dtype=float)
        v = t * t
        out = linear_detrend(series(v))
        coeffs = np.polyfit(t, v, 1)
        assert np.allclose(out.values, v - np.polyval(coeffs, t), atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        s = series(rng.random(50) + np.linspace(0, 5, 50))
        once = linear_detrend(s)
        twice = linear_detrend(once)
        assert np.allclose(once.values, twice.values, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError, match="3"):
            linear_detrend(series([1.0, 2.0]))


class TestFirstDifference:
    def test_constant_is_zero(self):
        out = first_difference(series([4.0] * 6))
        assert np.array_equal(out.values, np.zeros(5))

    def test_squares(self):
        out = first_difference(series([0.0, 1.0, 4.0, 9.0, 16.0]))
        assert list(out.values) == [1.0, 3.0, 5.0, 7.0]

    def test_start_shifts_one_day(self):
        out = first_difference(series([1.0, 2.0]))
        assert out.start == START + timedelta(days=1)
        assert len(out) == 1

    def test_inverts_cumsum(self):
        rng = np.random.default_rng(12)
        v = rng.random(30)
        out = first_difference(series(np.concatenate(([0.0], np.cumsum(v)))))
        assert np.allclose(out.values, v, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            first_difference(series([1.0]))


class TestSpearman:
    def test_monotone_is_exactly_one(self):
        x = series([1.0, 4.0, 9.0, 16.0, 30.0])
        y = series([2.0, 3.0, 5.0, 8.0, 13.0])
        assert spearman(x, y) == 1.0
        y_rev = series(y.values[::-1].copy())
        assert spearman(x, y_rev) == -1.0

    def test_tie_case_matches_oracle(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 3.0, 2.0, 4.0]
        got = spearman(series(x), series(y))
        assert got == brute_force_spearman(x, y)
        assert got == pytest.approx(math.sqrt(0.9))

    def test_random_instances_match_oracle_exactly(self):
        rng = np.random.default_rng(123)
        for trial in range(300):
            n = int(rng.integers(3, 11))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            got = spearman(series(x), series(y))
            assert got == brute_force_spearman(x, y)

    def test_midranks_match_loop_oracle(self):
        def loop_midranks(values):
            # The former loop: walk each tie run of the stable sort.
            v = np.asarray(values, dtype=float)
            n = v.size
            order = np.argsort(v, kind="stable")
            sv = v[order]
            ranks = np.empty(n)
            i = 0
            while i < n:
                j = i
                while j + 1 < n and sv[j + 1] == sv[i]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(2718)
        cases = [[], [3.0], [2.0, 2.0], [0.0, -0.0, np.nan, np.nan, 1.0, np.inf, -np.inf]]
        for _ in range(300):
            n = int(rng.integers(1, 200))
            cases.append(rng.integers(0, int(rng.integers(1, 8)), size=n).astype(float))
            cases.append(np.round(rng.normal(size=n), 1))
        for v in cases:
            got, want = tsstats._midranks(v), loop_midranks(v)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_rank_invariance(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            x = rng.random(15)
            y = rng.random(15)
            base = spearman(series(x), series(y))
            assert spearman(series(np.exp(x)), series(y)) == pytest.approx(base)
            assert spearman(series(x), series(y**3)) == pytest.approx(base)

    def test_symmetry(self):
        x = series([1.0, 5.0, 2.0, 8.0, 3.0])
        y = series([2.0, 1.0, 4.0, 3.0, 5.0])
        assert spearman(x, y) == spearman(y, x)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman(series([1.0, 1.0, 1.0]), series([1.0, 2.0, 3.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman(series([1.0, 2.0, 3.0]), series([1.0, 2.0]))

    def test_too_short(self):
        with pytest.raises(ValueError, match="3"):
            spearman(series([1.0, 2.0]), series([2.0, 1.0]))


class TestLaggedCorrelationScan:
    def test_planted_lag_exact(self):
        rng = np.random.default_rng(5)
        v = rng.random(60)
        x = series(v)
        y = series(v, start=START + timedelta(days=5))
        (out,) = lagged_correlation_scan([x], y, max_lag=8, n_perm=199, seed=1)
        by_lag = {r.lag: r for r in out}
        assert by_lag[5].rho == pytest.approx(1.0)
        assert by_lag[5].p_value < 1.0 / 199.0
        assert by_lag[5].n_obs == 60

    def test_lag_zero_identical(self):
        rng = np.random.default_rng(6)
        v = rng.random(40)
        (out,) = lagged_correlation_scan([series(v)], series(v), max_lag=0, n_perm=99, seed=0)
        assert out[0].rho == pytest.approx(1.0)

    def test_shared_trend_is_removed(self):
        rng = np.random.default_rng(9)
        xv = rng.random(80)
        yv = rng.random(80)
        trend = np.linspace(0.0, 50.0, 80)
        (plain,) = lagged_correlation_scan([series(xv)], series(yv), 5, n_perm=49, seed=3)
        (trended,) = lagged_correlation_scan(
            [series(xv + trend)], series(yv + trend), 5, n_perm=49, seed=3
        )
        for a, b in zip(plain, trended):
            assert a.rho == pytest.approx(b.rho, abs=1e-9)

    def test_short_overlap_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(10)
        x = series(rng.random(16), label="topic_0")
        other = series(rng.random(16), label="topic_1")
        y = series(rng.random(16))
        with caplog.at_level("WARNING", logger="newslens.tsstats"):
            out, _ = lagged_correlation_scan([x, other], y, max_lag=7, n_perm=49, seed=0)
        assert [r.lag for r in out] == [0, 1, 2, 3, 4, 5, 6]
        assert [r.message for r in caplog.records] == [
            "lag 7 skipped for series 'topic_0' (1 of 2 over the same days): "
            "fewer than 10 overlapping days"
        ]

    def test_one_warning_names_every_skipped_lag(self, caplog):
        # y starts 15 days before x: lag L overlaps on 15 - L days.
        rng = np.random.default_rng(10)
        x = series(rng.random(30), label="topic_0")
        y = series(rng.random(30), start=START - timedelta(days=15))
        with caplog.at_level("WARNING", logger="newslens.tsstats"):
            (out,) = lagged_correlation_scan([x], y, max_lag=9, n_perm=49, seed=0)
        assert [r.lag for r in out] == [0, 1, 2, 3, 4, 5]
        assert [r.message for r in caplog.records] == [
            "lags 6-9 skipped for series 'topic_0' (1 of 1 over the same days): "
            "fewer than 10 overlapping days"
        ]

    def test_seeded_p_values_reproducible(self):
        rng = np.random.default_rng(11)
        x = series(rng.random(50))
        y = series(rng.random(50))
        a = lagged_correlation_scan([x], y, 6, n_perm=199, seed=42)[0]
        b = lagged_correlation_scan([x], y, 6, n_perm=199, seed=42)[0]
        assert [r.p_value for r in a] == [r.p_value for r in b]

    def test_independent_noise_stays_weak(self):
        rng = np.random.default_rng(13)
        x = series(rng.standard_normal(200))
        y = series(rng.standard_normal(200))
        (out,) = lagged_correlation_scan([x], y, 10, n_perm=199, seed=7)
        assert max(abs(r.rho) for r in out) < 0.35

    def test_p_values_in_range(self):
        rng = np.random.default_rng(14)
        x = series(rng.random(40))
        y = series(rng.random(40))
        for r in lagged_correlation_scan([x], y, 5, n_perm=99, seed=2)[0]:
            assert 1.0 / 100.0 <= r.p_value <= 1.0

    def test_max_lag_validation(self):
        x = series(np.arange(20.0))
        with pytest.raises(ValueError, match="max_lag"):
            lagged_correlation_scan([x], x, max_lag=10, n_perm=9, seed=0)
        with pytest.raises(ValueError, match="max_lag"):
            lagged_correlation_scan([x], x, max_lag=-1, n_perm=9, seed=0)


def lag_pairs(x, y, lag):
    """(x(t), y(t + lag)) for every date t where both sides exist."""
    start = max(x.start, y.start - timedelta(days=lag))
    k = max((min(x.end, y.end - timedelta(days=lag)) - start).days + 1, 0)
    xi = (start - x.start).days
    yi = xi + (x.start - y.start).days + lag
    return x.values[xi : xi + k], y.values[yi : yi + k]


def scan_oracle(x, y, max_lag, n_perm, seed):
    """The per-permutation loop the batched scan replaced: one generator per
    series, one ``rng.permutation`` and one Pearson correlation per shuffle."""

    def pearson(a, b):
        ac = a - a.mean()
        bc = b - b.mean()
        return float((ac @ bc) / np.sqrt(float(ac @ ac) * float(bc @ bc)))

    xd = linear_detrend(x)
    yd = linear_detrend(y)
    rng = np.random.default_rng(seed)
    out = []
    for lag in range(max_lag + 1):
        xv, yv = lag_pairs(xd, yd, lag)
        n = xv.size
        if n < 10:
            continue
        rx = scipy.stats.rankdata(xv)
        ry = scipy.stats.rankdata(yv)
        rho = pearson(rx, ry)
        hits = 0
        for _ in range(n_perm):
            if abs(pearson(rx, rng.permutation(ry))) >= abs(rho) - 1e-12:
                hits += 1
        out.append((lag, rho, (1 + hits) / (n_perm + 1), n))
    return out


def cells(scan):
    return [(c.lag, c.rho, c.p_value, c.n_obs) for c in scan]


def tied_series(rng, n, start=START, levels=3.0):
    """Integer-rounded noise: few distinct values, so ranks tie often."""
    return series(np.round(rng.normal(size=n) * levels), start=start)


class TestBatchedScanMatchesOracle:
    """The batched scan against the loop it replaced, cell for cell."""

    @pytest.mark.parametrize("n_perm", [1, _PERM_CHUNK, _PERM_CHUNK + 1])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_mixed_spans_with_ties(self, n_perm, seed):
        rng = np.random.default_rng(seed + 1000)
        y = tied_series(rng, 40)
        xs = [
            tied_series(rng, 40),
            tied_series(rng, 40, levels=0.5),
            series((rng.random(40) < 0.5).astype(float)),
            tied_series(rng, 32, start=START + timedelta(days=3)),
            tied_series(rng, 36, start=START - timedelta(days=2)),
        ]
        got = lagged_correlation_scan(xs, y, 5, n_perm=n_perm, seed=seed)
        assert len(got) == len(xs)
        for x, scan in zip(xs, got):
            assert cells(scan) == scan_oracle(x, y, 5, n_perm, seed)

    def test_rounding_does_not_move_p_values(self, monkeypatch):
        # Mid-ranks are half-integers, so a shuffle reaching exactly |rho|
        # computes to the same bits.  On a rescaled rank scale the two
        # differ by rounding, and the 1e-12 tolerance must still count them.
        rng = np.random.default_rng(31)
        y = tied_series(rng, 24, levels=0.5)
        xs = [series((rng.random(24) < 0.5).astype(float)) for _ in range(6)]
        exact = lagged_correlation_scan(xs, y, 2, n_perm=300, seed=4)
        midranks = tsstats._midranks
        monkeypatch.setattr(tsstats, "_midranks", lambda v: midranks(v) * 0.1 + math.pi)
        rounded = lagged_correlation_scan(xs, y, 2, n_perm=300, seed=4)
        for a, b in zip(exact, rounded):
            assert [c.p_value for c in a] == [c.p_value for c in b]
            assert [c.rho for c in a] == pytest.approx([c.rho for c in b], abs=1e-12)

    def test_joint_scan_equals_separate_scans(self):
        rng = np.random.default_rng(17)
        y = tied_series(rng, 50)
        a = tied_series(rng, 50)
        b = tied_series(rng, 44, start=START + timedelta(days=4))
        c = tied_series(rng, 50)
        joint = lagged_correlation_scan([a, b, c], y, 6, n_perm=150, seed=9)
        alone = [lagged_correlation_scan([s], y, 6, n_perm=150, seed=9)[0] for s in (a, b, c)]
        assert [cells(s) for s in joint] == [cells(s) for s in alone]

    def test_empty_sequence(self):
        assert lagged_correlation_scan([], series(np.arange(30.0)), 3, n_perm=9, seed=0) == []

    def test_constant_series_named_with_lag(self):
        rng = np.random.default_rng(21)
        y = series(rng.random(40))
        good = series(rng.random(40), label="outlet_a/topic_0")
        flat = series(np.zeros(40), label="outlet_b/mentions_Briggs")
        with pytest.raises(
            ValueError,
            match=r"'outlet_b/mentions_Briggs' at lag 0: correlation undefined for a constant",
        ):
            lagged_correlation_scan([good, flat], y, 3, n_perm=9, seed=0)


class TestAdfTest:
    def test_alternating_series_strongly_rejects(self):
        v = np.array([1.0, -1.0] * 15)
        res = adf_test(series(v), max_lag_order=0)
        assert res.statistic < -3.43
        assert res.reject_1pct and res.reject_5pct and res.reject_10pct

    def test_white_noise_rejects(self):
        rng = np.random.default_rng(18)
        res = adf_test(series(rng.standard_normal(200)))
        assert res.reject_5pct

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(19)
        res = adf_test(series(np.cumsum(rng.standard_normal(200))))
        assert not res.reject_5pct

    def test_flags_monotone(self):
        rng = np.random.default_rng(20)
        for trial in range(15):
            v = np.cumsum(rng.standard_normal(60)) if trial % 2 else rng.standard_normal(60)
            res = adf_test(series(v))
            if res.reject_1pct:
                assert res.reject_5pct
            if res.reject_5pct:
                assert res.reject_10pct

    def test_lag_order_within_bounds(self):
        rng = np.random.default_rng(21)
        res = adf_test(series(rng.standard_normal(100)), max_lag_order=4)
        assert 0 <= res.lag_order <= 4

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(80)
        a = adf_test(series(v))
        b = adf_test(series(v))
        assert a == b

    def test_too_short(self):
        with pytest.raises(ValueError, match="25"):
            adf_test(series(np.arange(24.0)))


class TestGrangerBeta:
    def test_identical_series_exact(self):
        rng = np.random.default_rng(23)
        v = rng.standard_normal(50)
        s = series(v)
        res = granger_beta(s, s, lag=0)
        assert res.beta == 1.0
        assert res.stderr == 0.0
        assert res.p_value == 0.0
        assert math.isinf(res.t_stat)

    def test_planted_slope_recovered(self):
        rng = np.random.default_rng(24)
        n, tau = 200, 5
        dx = rng.standard_normal(n)
        noise = 0.1 * rng.standard_normal(n)
        dyv = np.zeros(n)
        dyv[tau:] = 0.8 * dx[: n - tau] + noise[tau:]
        res = granger_beta(series(dyv), series(dx), lag=tau)
        assert res.beta == pytest.approx(0.8, abs=0.1)
        assert res.p_value < 0.01
        assert res.t_stat == pytest.approx(res.beta / res.stderr)

    def test_matches_linregress(self):
        rng = np.random.default_rng(25)
        for trial in range(10):
            x = rng.standard_normal(60)
            y = 0.5 * x + rng.standard_normal(60)
            res = granger_beta(series(y), series(x), lag=0)
            ref = scipy.stats.linregress(x, y)
            assert res.beta == pytest.approx(ref.slope, rel=1e-10)
            assert res.stderr == pytest.approx(ref.stderr, rel=1e-10)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    @pytest.mark.parametrize("n", [20, 21, 60, 239])
    def test_p_value_equals_student_t_tail(self, n):
        # granger_beta computes the tail in tsstats, without scipy; it must
        # agree with the two-sided scipy.stats.t.sf tail to 1e-12.
        rng = np.random.default_rng(n)
        for slope in (0.0, 0.05, 0.3, 1.0, 4.0):
            x = rng.standard_normal(n)
            y = slope * x + rng.standard_normal(n)
            res = granger_beta(series(y), series(x), lag=0)
            expected = float(2.0 * scipy.stats.t.sf(abs(res.t_stat), df=n - 2))
            assert res.p_value == pytest.approx(expected, rel=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        design = np.column_stack([np.ones(40), x])
        coef = np.linalg.solve(design.T @ design, design.T @ y)
        resid = y - design @ coef
        sigma2 = float(resid @ resid) / (40 - 2)
        se = math.sqrt(sigma2 * np.linalg.inv(design.T @ design)[1, 1])
        res = granger_beta(series(y), series(x), lag=0)
        assert res.beta == pytest.approx(coef[1], abs=1e-8)
        assert res.stderr == pytest.approx(se, abs=1e-8)

    def test_short_overlap_rejected(self):
        s = series(np.arange(19.0))
        with pytest.raises(ValueError, match="20"):
            granger_beta(s, s, lag=0)

    def test_constant_regressor_rejected(self):
        y = series(np.random.default_rng(27).standard_normal(30))
        x = series(np.full(30, 2.0))
        with pytest.raises(ValueError, match="constant"):
            granger_beta(y, x, lag=0)


class TestStudentTTail:
    def test_matches_scipy_on_grid(self):
        # Every df from 1 to 60, then every 13th to 2000; |t| from 1e-3 to
        # 100.  Below that, scipy's own tail at df = 1 is off by up to
        # 2.8e-11 (at |t| = 1e-6), so small |t| is held to mpmath below.
        tail = tsstats._student_t_tail
        ts = np.concatenate([np.geomspace(1e-3, 100.0, 60), np.arange(1.0, 11.0)])
        worst = 0.0
        for df in [*range(1, 61), *range(61, 2000, 13), 2000]:
            ref = 2.0 * scipy.stats.t.sf(ts, df)
            for t, r in zip(ts.tolist(), ref.tolist()):
                if r >= 1e-300:
                    worst = max(worst, abs(tail(t, df) - r) / r, abs(tail(-t, df) - r) / r)
        assert worst <= 1e-12

    def test_closed_forms_at_one_and_two_df(self):
        # df = 1: 1 - (2/pi) atan|t| = (2/pi) atan(1/|t|).
        # df = 2: 1 - |t| / sqrt(2 + t^2) = 2 / (sqrt(2 + t^2) (sqrt(2 + t^2) + |t|)).
        # The right-hand forms keep their digits in the far tail.
        tail = tsstats._student_t_tail
        for t in np.geomspace(1e-8, 1e8, 161).tolist():
            r = math.sqrt(2.0 + t * t)
            assert tail(t, 1) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-12)
            assert tail(t, 2) == pytest.approx(2.0 / (r * (r + t)), rel=1e-12)
            assert tail(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t), abs=1e-15)
            assert tail(t, 2) == pytest.approx(1.0 - t / r, abs=1e-15)
        assert tail(1e200, 1) == pytest.approx(2.0 / math.pi * 1e-200, rel=1e-12)

    def test_small_t_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        tail = tsstats._student_t_tail
        with mpmath.workdps(40):
            for df in (1, 2, 3, 18, 237, 2000):
                for t in (1e-9, 1e-6, 3e-5, 1e-3):
                    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                    ref = float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True))
                    assert tail(t, df) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("df", [1, 2, 3, 18, 237, 2000])
    def test_ends_of_the_range(self, df):
        tail = tsstats._student_t_tail
        assert tail(0.0, df) == 1.0
        assert tail(-0.0, df) == 1.0
        assert tail(math.inf, df) == 0.0
        assert tail(-math.inf, df) == 0.0


class TestGrangerScan:
    def build_planted(self, seed=28, n=160, tau=6, beta=1.5):
        rng = np.random.default_rng(seed)
        topic_raw = np.cumsum(rng.standard_normal(n)) * 0.3 + 10.0
        d_topic = np.diff(topic_raw)
        d_spread = 0.05 * rng.standard_normal(n - 1)
        d_spread[tau:] += beta * d_topic[: n - 1 - tau]
        spread = np.concatenate(([0.0], np.cumsum(d_spread))) + 5.0
        other = np.cumsum(np.random.default_rng(seed + 1).standard_normal(n)) * 0.3
        return (
            series(spread),
            [series(topic_raw, label="planted"), series(other + 20.0, label="noise")],
            tau,
        )

    def test_planted_cell_is_most_significant(self):
        spread, coverage, tau = self.build_planted()
        out = granger_scan(spread, coverage, max_lag=10)
        best = min((r for scan in out for r in scan), key=lambda r: r.p_value)
        assert (best.topic, best.lag) == (0, tau)
        assert best.p_value < 0.01

    def test_covers_every_cell(self):
        spread, coverage, _ = self.build_planted()
        out = granger_scan(spread, coverage, max_lag=4)
        assert [[(r.topic, r.lag) for r in scan] for scan in out] == [
            [(t, l) for l in range(5)] for t in range(2)
        ]

    def test_empty_coverage(self):
        spread, _, _ = self.build_planted()
        assert granger_scan(spread, [], max_lag=4) == []

    def test_short_cells_skipped_with_one_warning_per_topic(self, caplog):
        # The spread starts 25 days before topic_0 and 26 before topic_1:
        # after differencing, lag L overlaps on 34 - L and 33 - L days, so
        # lags 15-16 and 14-16 fall short.
        rng = np.random.default_rng(30)
        spread = series(rng.standard_normal(60), start=START - timedelta(days=25))
        coverage = [
            series(rng.standard_normal(60), start=START + timedelta(days=i), label=f"topic_{i}")
            for i in range(2)
        ]
        with caplog.at_level("WARNING", logger="newslens.tsstats"):
            out = granger_scan(spread, coverage, max_lag=16)
        assert [[r.lag for r in scan] for scan in out] == [list(range(15)), list(range(14))]
        assert [r.n_obs for r in out[0]] == list(range(34, 19, -1))
        assert [r.n_obs for r in out[1]] == list(range(33, 19, -1))
        skips = [r.message for r in caplog.records if "skipped" in r.message]
        assert skips == [
            "lags 15-16 skipped for series 'topic_0' (1 of 1 over the same days): "
            "fewer than 20 overlapping days",
            "lags 14-16 skipped for series 'topic_1' (1 of 1 over the same days): "
            "fewer than 20 overlapping days",
        ]

    def test_series_over_the_same_days_share_one_warning(self, caplog):
        rng = np.random.default_rng(30)
        spread = series(rng.standard_normal(60), start=START - timedelta(days=25))
        coverage = [series(rng.standard_normal(60), label=f"topic_{i}") for i in range(3)]
        with caplog.at_level("WARNING", logger="newslens.tsstats"):
            out = granger_scan(spread, coverage, max_lag=16)
        assert [[(r.topic, r.lag) for r in scan] for scan in out] == [
            [(t, l) for l in range(15)] for t in range(3)
        ]
        skips = [r.message for r in caplog.records if "skipped" in r.message]
        assert skips == [
            "lags 15-16 skipped for series 'topic_0' (1 of 3 over the same days): "
            "fewer than 20 overlapping days"
        ]

    def test_joint_scan_equals_separate_scans(self):
        # A series' cells do not depend on the other series in the call,
        # whether or not they share its span; only ``topic`` differs.  The
        # third series ends past the spread, so its lags 15-16 are skipped.
        spread, coverage, _ = self.build_planted()
        rng = np.random.default_rng(32)
        coverage.append(series(rng.standard_normal(40), start=START + timedelta(days=125)))
        joint = granger_scan(spread, coverage, max_lag=16)
        assert [len(scan) for scan in joint] == [17, 17, 15]
        for i, s in enumerate(coverage):
            (alone,) = granger_scan(spread, [s], max_lag=16)
            assert [replace(r, topic=0) for r in joint[i]] == alone
            assert {r.topic for r in joint[i]} == {i}

    def test_no_cell_with_enough_overlap(self):
        rng = np.random.default_rng(31)
        spread = series(rng.standard_normal(60), start=START - timedelta(days=50))
        assert granger_scan(spread, [series(rng.standard_normal(60))], max_lag=3) == [[]]

    def test_doubly_integrated_spread_logs_nothing(self, caplog):
        # A doubly integrated spread is non-stationary after one
        # difference; the scan still scores every lag and logs nothing.
        rng = np.random.default_rng(29)
        doubly = np.cumsum(np.cumsum(rng.standard_normal(120)))
        topic = np.cumsum(rng.standard_normal(120))
        with caplog.at_level("DEBUG", logger="newslens.tsstats"):
            (cells,) = granger_scan(series(doubly), [series(topic)], max_lag=3)
        assert [c.lag for c in cells] == [0, 1, 2, 3]
        assert caplog.records == []
