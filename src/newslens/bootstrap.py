"""Bootstrap uncertainty for the sentiment-bias statistic.

Each labeled mention has a value in {-1, 0, +1} (its contribution to the
bias numerator), so the statistic is the mean of those values, and a
``SentimentTally`` holds all the data needed: its ``value_counts`` c.  A
same-size resample drawn with replacement is fully described by how many
of its n draws land on +1, 0 and -1: those counts are
Multinomial(n, (c+, c0, c-) / n), and the resample mean is exactly
(n+ - n-) / n.  One multinomial call therefore draws all resamples at a
cost independent of n, for the overall tally or any sub-tally such as a
topic's; the resampling scheme is the nonparametric bootstrap of Efron &
Tibshirani, *An Introduction to the Bootstrap* (1993).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sentiment import SentimentTally, sentiment_bias

__all__ = ["BootstrapResult", "bootstrap_sb"]

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with percentile interval and sign diagnostic.

    ``p_sign`` is the fraction of resamples with a non-positive
    statistic; ``stderr`` is the standard deviation (ddof=1) of the
    resampled statistics; ``generator`` records the RNG behind the
    resampling.
    """

    point: float
    ci_low: float
    ci_high: float
    p_sign: float
    stderr: float
    n_mentions: int
    n_resamples: int
    level: float
    seed: int
    generator: str = GENERATOR_NAME


def _resample_means(
    counts: tuple[int, int, int], n_resamples: int, seed: int
) -> np.ndarray:
    # Sums of +/-1 and 0 are exact, so (n+ - n-) / n is bit-identical to
    # the mean of a resampled value vector with the same counts.
    n = sum(counts)
    draws = np.random.default_rng(seed).multinomial(
        n, np.asarray(counts, dtype=float) / n, size=n_resamples
    )
    return (draws[:, 0] - draws[:, 2]) / n


def bootstrap_sb(
    tally: SentimentTally,
    n_resamples: int = 10000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap for the sentiment bias of a tally.

    The point estimate is the tally's sentiment bias; ``n_resamples``
    same-size resamples of its mentions drawn with replacement (as one
    multinomial draw of their value counts) yield the percentile
    interval at ``level``, the sign diagnostic and the standard error.
    """
    if tally.total == 0:
        raise ValueError("no mentions to resample")
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2 for a standard error, got {n_resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    means = _resample_means(tally.value_counts, n_resamples, seed)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return BootstrapResult(
        point=sentiment_bias(tally).value,
        ci_low=float(lo),
        ci_high=float(hi),
        p_sign=float(np.mean(means <= 0.0)),
        stderr=float(np.std(means, ddof=1)),
        n_mentions=tally.total,
        n_resamples=n_resamples,
        level=level,
        seed=seed,
    )
