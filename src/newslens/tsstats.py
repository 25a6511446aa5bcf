"""Time-series statistics: rank correlation, stationarity, lead-lag tests."""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .series import DatedSeries

__all__ = [
    "linear_detrend",
    "first_difference",
    "spearman",
    "LagCorrelation",
    "lagged_correlation_scan",
    "MIN_LAG_OVERLAP",
    "AdfResult",
    "adf_test",
    "GrangerResult",
    "granger_beta",
    "granger_scan",
    "MIN_GRANGER_OVERLAP",
    "GRANGER_ALPHA",
]

log = logging.getLogger(__name__)

# Large-sample critical values for the ADF t-statistic, constant-only case.
ADF_CRITICAL = {"1%": -3.43, "5%": -2.86, "10%": -2.57}

# Fewest overlapping days a lag correlation is computed from.
MIN_LAG_OVERLAP = 10

# Fewest overlapping days a slope test is computed from.
MIN_GRANGER_OVERLAP = 20

# Level below which a slope-test cell counts as significant.
GRANGER_ALPHA = 0.01


def linear_detrend(series: DatedSeries) -> DatedSeries:
    """Residuals of an ordinary least-squares line fit against time."""
    n = len(series)
    if n < 3:
        raise ValueError(f"need at least 3 points to detrend, got {n}")
    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, series.values, 1)
    return series.with_values(series.values - (slope * t + intercept))


def first_difference(series: DatedSeries) -> DatedSeries:
    """Day-over-day changes; output starts one day after the input."""
    if len(series) < 2:
        raise ValueError("need at least 2 points to difference")
    return DatedSeries(
        series.start + timedelta(days=1),
        np.diff(series.values),
        label=series.label,
    )


def _lag_overlap(x: DatedSeries, y: DatedSeries, lag: int) -> tuple[slice, slice]:
    """Index ranges of x and y pairing x(t) with y(t + lag) wherever both exist."""
    offset = (y.start - x.start).days - lag  # x's index for y's first value
    lo = max(0, offset)
    hi = max(lo, min(len(x), len(y) + offset))
    return slice(lo, hi), slice(lo - offset, hi - offset)


def _lag_grid(
    xs: list[DatedSeries], y: DatedSeries, max_lag: int, min_overlap: int
) -> Iterator[tuple[list[int], list[tuple[int, slice, slice]]]]:
    """Cells of x(t) against y(t + lag), per group of series over the same days.

    Yields each group's member indices (series with the same start and
    length) and its (lag, x slice, y slice) cells for lags 0..max_lag with
    at least ``min_overlap`` overlapping days.  One warning per group names
    the lags skipped, in runs.
    """
    groups: dict[tuple[date, int], list[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault((x.start, len(x)), []).append(i)
    for members in groups.values():
        cells, runs = [], []  # runs: the skipped lags, as [first, last] pairs
        for lag in range(max_lag + 1):
            xi, yi = _lag_overlap(xs[members[0]], y, lag)
            if xi.stop - xi.start >= min_overlap:
                cells.append((lag, xi, yi))
            elif runs and runs[-1][1] == lag - 1:
                runs[-1][1] = lag
            else:
                runs.append([lag, lag])
        if runs:
            log.warning(
                "%s %s skipped for series %r (1 of %d over the same days): "
                "fewer than %d overlapping days",
                "lag" if runs[0][0] == runs[-1][1] else "lags",
                ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs),
                xs[members[0]].label, len(members), min_overlap,
            )
        yield members, cells


# --- rank correlation -----------------------------------------------------

def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    # Tie runs of the sorted values: [start, end] inclusive.
    starts = np.flatnonzero(np.concatenate(([True], np.not_equal(sv[1:], sv[:-1]))))
    ends = np.append(starts[1:], v.size) - 1
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a constant input")
    return float((xc @ yc) / np.sqrt(sxx * syy))


def spearman(x: DatedSeries, y: DatedSeries) -> float:
    """Spearman rank correlation with mid-rank tie handling.

    Operates on the values positionally; the two series must have equal
    length.  Constant inputs raise ValueError.
    """
    x, y = np.asarray(x.values), np.asarray(y.values)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs, got {x.size}")
    return _pearson(_midranks(x), _midranks(y))


@dataclass(frozen=True)
class LagCorrelation:
    """Correlation between x(t) and y(t + lag) with a permutation p-value."""

    lag: int
    rho: float
    p_value: float
    n_obs: int


# Permutations scored per matrix product; bounds the scan's memory at
# O(_PERM_CHUNK * n) whatever n_perm is.
_PERM_CHUNK = 1024


def lagged_correlation_scan(
    xs: Sequence[DatedSeries],
    y: DatedSeries,
    max_lag: int,
    n_perm: int = 10000,
    seed: int = 0,
) -> list[list[LagCorrelation]]:
    """Spearman correlation of each detrended x(t) against detrended y(t + lag).

    Returns one list of LagCorrelation per series of ``xs``, in order.
    Every series is linearly detrended in full before any alignment.  For
    each lag in 0..max_lag the overlap pairs x(t), y(t + lag) are ranked
    and correlated; the p-value is the two-sided permutation tail
    (1 + #{|rho_perm| >= |rho|}) / (n_perm + 1) under a seeded shuffle of
    y's rank vector.  Lags with fewer than ``MIN_LAG_OVERLAP`` overlap
    pairs are skipped, with one warning per group of series over the same
    days, so a series' list may be empty.  A
    constant overlap raises ValueError naming the series label and the lag.

    The shuffles equal those of one ``default_rng(seed)`` per series
    calling ``rng.permutation`` once per permutation, lag after lag, so
    a series' result does not depend on the other series in the call.
    Series over the same days (same start and length) see the same
    overlaps, so they share one such generator, re-seeded per group, and
    each drawn shuffle is scored against all of them at once.
    """
    xs = list(xs)
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    for x in xs:
        shorter = min(len(x), len(y))
        if max_lag >= shorter / 2:
            raise ValueError(
                f"series {x.label!r}: max_lag {max_lag} too large for series of length {shorter}"
            )
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    out: list[list[LagCorrelation]] = [[] for _ in xs]
    if not xs:
        return out
    yd = linear_detrend(y)
    for members, cells in _lag_grid(xs, yd, max_lag, MIN_LAG_OVERLAP):
        xds = [linear_detrend(xs[i]) for i in members]
        rng = np.random.default_rng(seed)
        for lag, xi, yi in cells:
            yv = yd.values[yi]
            ry = _midranks(yv)
            rxs = [_midranks(xd.values[xi]) for xd in xds]
            rhos = []
            for i, rx in zip(members, rxs):
                try:
                    rhos.append(_pearson(rx, ry))
                except ValueError as exc:
                    raise ValueError(f"series {xs[i].label!r} at lag {lag}: {exc}") from None
            hits = _permutation_hits(np.column_stack(rxs), ry, np.array(rhos), n_perm, rng)
            for i, rho, h in zip(members, rhos, hits):
                p = (1 + int(h)) / (n_perm + 1)
                out[i].append(LagCorrelation(lag=lag, rho=rho, p_value=p, n_obs=yv.size))
    return out


def _permutation_hits(
    rx: np.ndarray, ry: np.ndarray, rhos: np.ndarray, n_perm: int, rng: np.random.Generator
) -> np.ndarray:
    """For each column of ``rx``, the shuffles of ``ry`` with |r| >= |rho|.

    ``rng.permuted`` over rows of ``arange(n)`` consumes the generator
    exactly as successive ``rng.permutation(ry)`` calls do.
    """
    n = ry.size
    xc = rx - rx.mean(axis=0)
    yc = ry - ry.mean()
    scale = np.sqrt(float(yc @ yc) * np.einsum("ij,ij->j", xc, xc))
    # The slack counts a shuffle that reaches |rho| up to rounding.
    bar = np.abs(rhos) - 1e-12
    hits = np.zeros(rx.shape[1], dtype=np.int64)
    for done in range(0, n_perm, _PERM_CHUNK):
        rows = min(_PERM_CHUNK, n_perm - done)
        idx = rng.permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)
        hits += (np.abs((yc[idx] @ xc) / scale) >= bar).sum(axis=0)
    return hits


# --- regression helpers ---------------------------------------------------

def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients, standard errors, and SSR; raises on singular design."""
    n, k = x.shape
    if n <= k:
        raise ValueError(f"too few observations ({n}) for {k} parameters")
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < k:
        raise ValueError("singular regression design")
    resid = y - x @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (n - k)
    xtx_inv = np.linalg.inv(x.T @ x)
    se = np.sqrt(np.clip(np.diag(xtx_inv) * sigma2, 0.0, None))
    return beta, se, ssr


@dataclass(frozen=True)
class AdfResult:
    """Unit-root test summary; rejection means the series looks stationary."""

    statistic: float
    lag_order: int
    n_obs: int
    reject_1pct: bool
    reject_5pct: bool
    reject_10pct: bool


def adf_test(series: DatedSeries, max_lag_order: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test with a constant and AIC lag selection.

    Fits dy_t = a + g * y_{t-1} + sum_i d_i * dy_{t-i} for each lag count
    p in 0..max_lag_order on a common sample, picks p by
    AIC = n * ln(SSR / n) + 2k, refits at that p on the full usable
    sample, and reports the t-ratio of g against fixed large-sample
    critical values (-3.43, -2.86, -2.57 at 1%, 5%, 10%).
    """
    y = series.values
    n = y.size
    if n < 25:
        raise ValueError(f"need at least 25 observations, got {n}")
    if max_lag_order is None:
        max_lag_order = int(12 * (n / 100.0) ** 0.25)
    if max_lag_order < 0:
        raise ValueError(f"max_lag_order must be >= 0, got {max_lag_order}")
    dy = np.diff(y)
    m = dy.size
    max_p = min(max_lag_order, m - 10)
    if max_p < 0:
        max_p = 0

    def design(p: int, start: int) -> tuple[np.ndarray, np.ndarray]:
        rows = np.arange(start, m)
        cols = [np.ones(rows.size), y[rows]]
        for i in range(1, p + 1):
            cols.append(dy[rows - i])
        return np.column_stack(cols), dy[rows]

    best_p, best_aic = 0, np.inf
    common = max_p
    for p in range(max_p + 1):
        x, resp = design(p, common)
        try:
            _, _, ssr = _ols(x, resp)
        except ValueError:
            continue
        n_eff = resp.size
        aic = n_eff * np.log(ssr / n_eff) + 2 * (p + 2) if ssr > 0 else -np.inf
        if aic < best_aic:
            best_aic, best_p = aic, p

    x, resp = design(best_p, best_p)
    beta, se, _ = _ols(x, resp)
    if se[1] == 0.0:
        raise ValueError("degenerate regression: zero standard error")
    stat = float(beta[1] / se[1])
    return AdfResult(
        statistic=stat,
        lag_order=best_p,
        n_obs=resp.size,
        reject_1pct=stat < ADF_CRITICAL["1%"],
        reject_5pct=stat < ADF_CRITICAL["5%"],
        reject_10pct=stat < ADF_CRITICAL["10%"],
    )


# --- Student's t tail -----------------------------------------------------

# Iteration cap of _beta_cf.  Student's t tails converged within 45
# iterations at every df tried, from 1 to 10**6.
_CF_MAX_ITER = 200


# A run asks for one df per lag and span group, so this holds them all.
@functools.lru_cache(maxsize=256)
def _inv_beta_half(df: int) -> float:
    """1 / B(df/2, 1/2), from C(1) = 1/pi, C(2) = 1/2, C(df + 2) = C(df) (df + 1) / df.

    A product of ratios near 1 keeps full precision, where a difference of
    two ``lgamma`` values of size df ln df would not.
    """
    c = 1.0 / math.pi if df % 2 else 0.5
    for v in range(2 - df % 2, df, 2):
        c *= (v + 1) / v
    return c


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta, by modified Lentz.

    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times the returned value.  It
    converges fast for x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300  # keeps a denominator off zero
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER):
        m2 = a + 2 * m
        # Two partial numerators per step: the even one, then the odd one.
        num = m * (b - m) * x / ((m2 - 1.0) * m2)
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (a + b + m) * x / (m2 * (m2 + 1.0))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h


def _student_t_tail(t: float, df: int) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with integer df >= 1.

    The tail is I_x(df/2, 1/2) at x = df / (df + t^2).  Below the
    continued fraction's switch point it is read directly, which keeps
    small tails accurate to their last digits; above it, as
    1 - I_(1-x)(1/2, df/2), whose value there is at least about 0.08.
    Pure ``math``, so the result does not depend on BLAS.  Exactly 1.0 at
    t = 0 and 0.0 at infinite t; even in t.
    """
    t2 = t * t
    a = 0.5 * df
    if t2 > 1e300:
        # x^a = (t^2 / df)^-a to double precision; the other factors are 1.
        return math.exp(-df * (math.log(abs(t)) - 0.5 * math.log(df))) * _inv_beta_half(df) / a
    s = df + t2
    # x^a (1 - x)^(1/2) / B(a, 1/2), with ln x = -log1p(t^2 / df).
    front = math.exp(-a * math.log1p(t2 / df)) * math.sqrt(t2 / s) * _inv_beta_half(df)
    if df * (a + 2.5) < (a + 1.0) * s:  # x < (a + 1) / (a + 1/2 + 2)
        return front * _beta_cf(a, 0.5, df / s) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, t2 / s)


# --- lead-lag regression --------------------------------------------------

@dataclass(frozen=True)
class GrangerResult:
    """Slope test of y(t + lag) on x(t), both already differenced."""

    topic: int
    lag: int
    beta: float
    stderr: float
    t_stat: float
    p_value: float
    n_obs: int

    @property
    def significant(self) -> bool:
        """Whether the cell's p-value is below GRANGER_ALPHA."""
        return self.p_value < GRANGER_ALPHA


def granger_beta(
    dy: DatedSeries, dx: DatedSeries, lag: int, topic: int = -1
) -> GrangerResult:
    """OLS slope of dy(t + lag) on dx(t) with an intercept.

    Inputs are expected to be differenced series.  The p-value is the
    two-sided tail of Student's t with n - 2 degrees of freedom, from
    ``_student_t_tail`` (pure ``math``, within 1e-12 relative of
    ``scipy.stats.t.sf``).  A negative lag, fewer than
    MIN_GRANGER_OVERLAP overlapping days or a constant regressor raise
    ValueError.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    xi, yi = _lag_overlap(dx, dy, lag)
    xv, yv = dx.values[xi], dy.values[yi]
    n = xv.size
    if n < MIN_GRANGER_OVERLAP:
        raise ValueError(
            f"only {n} overlapping days at lag {lag}; need >= {MIN_GRANGER_OVERLAP}"
        )
    if np.all(xv == xv[0]):
        raise ValueError(f"regressor is constant at lag {lag}")
    # Closed-form simple regression: slope = Sxy / Sxx keeps the
    # identical-series case exact (slope 1.0, zero residual).
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    ssr = float(resid @ resid)
    slope_se = float(np.sqrt(ssr / (n - 2) / sxx))
    if slope_se == 0.0:
        t_stat = np.inf if slope != 0 else 0.0
        p = 0.0 if slope != 0 else 1.0
    else:
        t_stat = slope / slope_se
        p = _student_t_tail(t_stat, n - 2)
    return GrangerResult(
        topic=topic,
        lag=lag,
        beta=slope,
        stderr=slope_se,
        t_stat=float(t_stat),
        p_value=p,
        n_obs=n,
    )


def granger_scan(
    spread: DatedSeries,
    coverage: Sequence[DatedSeries],
    max_lag: int,
) -> list[list[GrangerResult]]:
    """Slope tests of differenced spread on each differenced topic series.

    Returns one list of GrangerResult per series of ``coverage``, in
    order, lags ascending, each cell's ``topic`` the series' position.
    Both sides are first-differenced.  Lags with fewer than
    MIN_GRANGER_OVERLAP overlapping days are skipped, with one warning per
    group of series over the same days, so a series' list may be empty.
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    out: list[list[GrangerResult]] = [[] for _ in coverage]
    if not coverage:
        return out
    d_spread = first_difference(spread)
    d_topics = [first_difference(s) for s in coverage]
    for members, cells in _lag_grid(d_topics, d_spread, max_lag, MIN_GRANGER_OVERLAP):
        for i in members:
            out[i] = [granger_beta(d_spread, d_topics[i], lag, topic=i) for lag, _, _ in cells]
    return out
