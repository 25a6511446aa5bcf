"""Time-series statistics: rank correlation, stationarity, lead-lag tests."""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
from scipy import special

from .series import DatedSeries, align_lagged

__all__ = [
    "linear_detrend",
    "first_difference",
    "spearman",
    "LagCorrelation",
    "lagged_correlation_scan",
    "acf_pacf",
    "AdfResult",
    "adf_test",
    "GrangerResult",
    "granger_beta",
    "granger_scan",
    "GRANGER_ALPHA",
]

log = logging.getLogger(__name__)

# Large-sample critical values for the ADF t-statistic, constant-only case.
ADF_CRITICAL = {"1%": -3.43, "5%": -2.86, "10%": -2.57}

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


# --- rank correlation -----------------------------------------------------

def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks."""
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


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a constant input")
    return float((xc @ yc) / np.sqrt(sxx * syy))


def _spearman_values(x: np.ndarray, y: np.ndarray) -> float:
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs, got {x.size}")
    return _pearson(_midranks(x), _midranks(y))


def spearman(x: DatedSeries, y: DatedSeries) -> float:
    """Spearman rank correlation with mid-rank tie handling.

    Operates on the values positionally; the two series must have equal
    length.  Constant inputs raise ValueError.
    """
    return _spearman_values(np.asarray(x.values), np.asarray(y.values))


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
    y's rank vector.  Lags with fewer than 10 overlap pairs are skipped
    with a warning.  A constant overlap raises ValueError naming the
    series label and the lag.

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
    groups: dict[tuple[date, int], list[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault((x.start, len(x)), []).append(i)
    for members in groups.values():
        xds = [linear_detrend(xs[i]) for i in members]
        rng = np.random.default_rng(seed)
        for lag in range(max_lag + 1):
            pairs = [align_lagged(xd, yd, lag) for xd in xds]
            n = pairs[0][0].size
            if n < 10:
                log.warning("lag %d skipped: only %d overlapping days", lag, n)
                continue
            ry = _midranks(pairs[0][1])
            rxs = [_midranks(xv) for xv, _ in pairs]
            rhos = []
            for i, rx in zip(members, rxs):
                try:
                    rhos.append(_pearson(rx, ry))
                except ValueError as exc:
                    raise ValueError(f"series {xs[i].label!r} at lag {lag}: {exc}") from None
            hits = _permutation_hits(np.column_stack(rxs), ry, np.array(rhos), n_perm, rng)
            for i, rho, h in zip(members, rhos, hits):
                p = (1 + int(h)) / (n_perm + 1)
                out[i].append(LagCorrelation(lag=lag, rho=rho, p_value=p, n_obs=n))
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


# --- autocorrelation ------------------------------------------------------

def acf_pacf(series: DatedSeries, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelations and partial autocorrelations for lags 0..max_lag.

    The ACF uses the biased estimator (denominator n); the PACF comes
    from the Durbin-Levinson recursion, with pacf[0] = 1 by convention.
    """
    v = series.values
    n = v.size
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag >= n / 2:
        raise ValueError(f"max_lag {max_lag} too large for length {n}")
    centered = v - v.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ValueError("autocorrelation undefined for a constant series")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = float(centered[:-k] @ centered[k:]) / denom

    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    phi_prev = np.zeros(0)
    for k in range(1, max_lag + 1):
        if k == 1:
            phi_k = np.array([acf[1]])
        else:
            num = acf[k] - float(phi_prev @ acf[k - 1 : 0 : -1])
            den = 1.0 - float(phi_prev @ acf[1:k])
            if den == 0.0:
                raise ValueError(f"Durbin-Levinson recursion degenerate at lag {k}")
            last = num / den
            phi_k = np.empty(k)
            phi_k[:-1] = phi_prev - last * phi_prev[::-1]
            phi_k[-1] = last
        pacf[k] = phi_k[-1]
        phi_prev = phi_k
    return acf, pacf


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


def granger_beta(
    dy: DatedSeries, dx: DatedSeries, lag: int, topic: int = -1
) -> GrangerResult:
    """OLS slope of dy(t + lag) on dx(t) with an intercept.

    Inputs are expected to be differenced series.  The p-value is
    two-sided from the t-distribution with n - 2 degrees of freedom.
    Fewer than 20 overlapping days or a constant regressor raise
    ValueError.
    """
    xv, yv = align_lagged(dx, dy, lag)
    n = xv.size
    if n < 20:
        raise ValueError(f"only {n} overlapping days at lag {lag}; need >= 20")
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
        # stdtr(df, -|t|) is the upper tail of Student's t, as
        # scipy.stats.t.sf computes it, without importing scipy.stats.
        p = float(2.0 * special.stdtr(n - 2, -abs(t_stat)))
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
    coverage: list[DatedSeries],
    max_lag: int,
) -> list[GrangerResult]:
    """Slope tests of differenced spread on each differenced topic series.

    Both sides are first-differenced; the differenced spread is checked
    with the unit-root test and a warning is logged when stationarity is
    not supported at the 5% level.  Every (topic, lag) cell for lags
    0..max_lag is returned; the report marks cells with
    p < GRANGER_ALPHA as significant.  An empty coverage list yields an
    empty result.
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    results: list[GrangerResult] = []
    if not coverage:
        return results
    d_spread = first_difference(spread)
    try:
        adf = adf_test(d_spread)
        if not adf.reject_5pct:
            log.warning(
                "differenced spread may be non-stationary "
                "(ADF statistic %.3f fails the 5%% level)",
                adf.statistic,
            )
    except ValueError as exc:
        log.warning("unit-root check skipped: %s", exc)
    for i, topic_series in enumerate(coverage):
        d_topic = first_difference(topic_series)
        for lag in range(max_lag + 1):
            results.append(granger_beta(d_spread, d_topic, lag, topic=i))
    return results
