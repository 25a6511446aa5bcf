"""Bootstrap uncertainty for the sentiment-bias statistic.

Each labeled mention maps to a value in {-1, 0, +1} (its contribution to
the bias numerator), so the statistic is the mean of that vector and a
resample is a mean over indices drawn with replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sentiment import MentionRecord, mention_value

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


def _values(
    mentions: list[MentionRecord] | list[tuple[str, str]],
    label_a: str,
    label_b: str,
) -> np.ndarray:
    vals = np.empty(len(mentions), dtype=float)
    for i, m in enumerate(mentions):
        if isinstance(m, MentionRecord):
            entity, cls = m.entity, m.sentiment
        else:
            entity, cls = m
        vals[i] = mention_value(entity, cls, label_a, label_b)
    return vals


def _resample_means(vals: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    # One child seed per resample, so results do not depend on how the
    # loop is chunked or scheduled.
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    n = vals.size
    means = np.empty(n_resamples)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        means[i] = vals[idx].mean()
    return means


def bootstrap_sb(
    mentions: list[MentionRecord] | list[tuple[str, str]],
    label_a: str,
    label_b: str,
    n_resamples: int = 10000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap for the sentiment bias of a mention set.

    Mentions may be MentionRecord objects or (entity, class) pairs.  The
    point estimate comes from the original data alone; ``n_resamples``
    same-size resamples drawn with replacement yield the percentile
    interval at ``level``, the sign diagnostic and the standard error.
    """
    if not mentions:
        raise ValueError("no mentions to resample")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    vals = _values(mentions, label_a, label_b)
    means = _resample_means(vals, n_resamples, seed)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return BootstrapResult(
        point=float(vals.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        p_sign=float(np.mean(means <= 0.0)),
        stderr=float(np.std(means, ddof=1)),
        n_mentions=vals.size,
        n_resamples=n_resamples,
        level=level,
        seed=seed,
    )

