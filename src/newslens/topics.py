"""Topic decomposition and daily topic coverage.

Factorizes the document-term matrix M (docs x terms) as H @ W with
non-negative factors: H holds per-document topic loadings, W holds
per-topic term weights.  Coverage turns the loadings into one daily
series per topic, weighted by document length.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
import scipy.sparse as sp

from .corpus import Article
from .series import DatedSeries, sliding_mean
from .vectorize import DocTermMatrix, Vocabulary

__all__ = [
    "NmfFactors",
    "nmf_factorize",
    "reconstruction_error",
    "top_keywords",
    "TopicCoverage",
    "topic_weight_series",
    "agenda_profile",
]

log = logging.getLogger(__name__)

_DAY = timedelta(days=1)
_EPS = 1e-12

NORMALIZATION_MODES = ("per_day_share", "per_topic_area", "none")


@dataclass(frozen=True)
class NmfFactors:
    """Result of a non-negative factorization M ~ H @ W.

    W rows are L2-normalized, with the scale folded into H columns.
    ``errors`` holds the Frobenius reconstruction error before the first
    update and after every full iteration; ``doc_ids`` aligns H rows with
    the articles behind them.
    """

    H: np.ndarray
    W: np.ndarray
    n_topics: int
    final_error: float
    iterations: int
    errors: np.ndarray
    doc_ids: tuple[str, ...]
    vocab: Vocabulary | None = None


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, DocTermMatrix):
        return matrix.matrix.tocsr()
    if sp.issparse(matrix):
        return matrix.tocsr().astype(float)
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def _frobenius(x: sp.csr_matrix, h: np.ndarray, w: np.ndarray, x_sq: float) -> float:
    # Dense residual when cheap (exact); otherwise the expanded trace form
    # ||X||^2 - 2<X, HW> + <H'H, WW'>, clamped at zero against rounding.
    d, t = x.shape
    if d * t <= 4_000_000:
        diff = h @ w - x.toarray()
        return float(np.sqrt(np.sum(diff * diff)))
    cross = float(np.sum(np.asarray(x @ w.T) * h))
    gram = float(np.sum((h.T @ h) * (w @ w.T)))
    return float(np.sqrt(max(x_sq - 2.0 * cross + gram, 0.0)))


def nmf_factorize(
    matrix,
    n_topics: int,
    seed: int,
    tol: float = 1e-5,
    max_iter: int = 500,
) -> NmfFactors:
    """Multiplicative-update NMF minimizing the Frobenius error.

    Parameters
    ----------
    matrix : DocTermMatrix, scipy sparse matrix, or 2-d array
        Non-negative input, docs in rows.
    n_topics : int
        Factorization rank; must satisfy 1 <= n_topics <= min(docs, terms).
    seed : int
        Seeds the uniform (0, 1] initialization of both factors.
    tol : float
        Stop once the relative error improvement per iteration falls
        below this.
    max_iter : int
        Hard iteration cap.

    Each iteration applies

        H <- H * (X @ W') / (H @ W @ W' + eps)
        W <- W * (H' @ X) / (H' @ H @ W + eps)

    which never increases the reconstruction error.  After convergence W
    rows are L2-normalized and the scale folded into H, leaving H @ W
    unchanged.
    """
    x = _as_csr(matrix)
    d, t = x.shape
    if not 1 <= n_topics <= min(d, t):
        raise ValueError(f"n_topics must be in [1, {min(d, t)}], got {n_topics}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if x.nnz and x.data.min() < 0:
        raise ValueError("input matrix must be non-negative")

    rng = np.random.default_rng(seed)
    # 1 - random() lies in (0, 1]: strictly positive starting factors.
    h = 1.0 - rng.random((d, n_topics))
    w = 1.0 - rng.random((n_topics, t))

    x_sq = float(x.multiply(x).sum())
    errors = [_frobenius(x, h, w, x_sq)]
    iterations = 0
    for it in range(1, max_iter + 1):
        h *= np.asarray(x @ w.T) / (h @ (w @ w.T) + _EPS)
        w *= np.asarray(h.T @ x) / ((h.T @ h) @ w + _EPS)
        err = _frobenius(x, h, w, x_sq)
        if not np.isfinite(err):
            raise ValueError(f"reconstruction error diverged at iteration {it}")
        prev = errors[-1]
        errors.append(err)
        iterations = it
        if prev == 0.0 or (prev - err) / prev < tol:
            break

    norms = np.sqrt(np.sum(w * w, axis=1))
    norms[norms == 0.0] = 1.0
    w /= norms[:, None]
    h *= norms[None, :]

    doc_ids = matrix.doc_ids if isinstance(matrix, DocTermMatrix) else tuple(
        str(i) for i in range(d)
    )
    vocab = matrix.vocab if isinstance(matrix, DocTermMatrix) else None
    err_arr = np.asarray(errors)
    err_arr.setflags(write=False)
    h.setflags(write=False)
    w.setflags(write=False)
    return NmfFactors(
        H=h,
        W=w,
        n_topics=n_topics,
        final_error=float(errors[-1]),
        iterations=iterations,
        errors=err_arr,
        doc_ids=doc_ids,
        vocab=vocab,
    )


def reconstruction_error(matrix, factors: NmfFactors) -> float:
    """Frobenius norm of M - H @ W."""
    x = _as_csr(matrix)
    d, t = x.shape
    if factors.H.shape[0] != d or factors.W.shape[1] != t:
        raise ValueError(
            f"factor shapes {factors.H.shape} x {factors.W.shape} "
            f"do not match matrix {x.shape}"
        )
    return _frobenius(x, factors.H, factors.W, float(x.multiply(x).sum()))


def top_keywords(factors: NmfFactors, k: int = 10) -> list[list[str]]:
    """Per topic, the k terms with the largest weight (ties alphabetical)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if factors.vocab is None:
        raise ValueError("factors carry no vocabulary")
    terms = factors.vocab.terms
    out = []
    for row in factors.W:
        order = sorted(range(len(terms)), key=lambda j: (-row[j], terms[j]))
        out.append([terms[j] for j in order[:k]])
    return out


@dataclass(frozen=True)
class TopicCoverage:
    """Daily coverage series per topic.

    ``topics`` holds the smoothed, normalized series; ``raw`` the
    unsmoothed length-weighted loadings behind them.  ``topic_ids`` maps
    positions back to factorization topic indices (relevant when some
    topics were dropped).
    """

    topics: tuple[DatedSeries, ...]
    raw: tuple[DatedSeries, ...]
    topic_ids: tuple[int, ...]
    mode: str


def topic_weight_series(
    factors: NmfFactors,
    articles: list[Article],
    window_days: int = 7,
    mode: str = "per_day_share",
    drop: tuple[int, ...] = (),
) -> TopicCoverage:
    """Daily topic coverage from document loadings.

    The raw weight of topic i on day d sums length(j) * H[j, i] over the
    documents j published on d, where length(j) counts the tokens of
    title plus body.  Raw series are smoothed with a trailing
    ``window_days`` mean, then normalized:

    - ``per_day_share``: each day's values divided by their sum, so the
      kept topics' shares sum to one on days with any coverage;
    - ``per_topic_area``: each topic divided by its own total, giving
      unit area per topic;
    - ``none``: smoothed raw values.

    Topics listed in ``drop`` are removed before normalization.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    by_id = {a.id: a for a in articles}
    missing = [i for i in factors.doc_ids if i not in by_id]
    if missing:
        raise ValueError(f"articles missing for doc ids: {missing[:5]}")
    dropset = set(drop)
    bad = dropset - set(range(factors.n_topics))
    if bad:
        raise ValueError(f"drop indices {sorted(bad)} outside topic range")
    kept = [i for i in range(factors.n_topics) if i not in dropset]
    if not kept:
        raise ValueError("all topics dropped")

    used = [by_id[i] for i in factors.doc_ids]
    first = min(a.date for a in used)
    last = max(a.date for a in used)
    n_days = (last - first).days + 1
    raw = np.zeros((factors.n_topics, n_days))
    for j, art in enumerate(used):
        d = (art.date - first).days
        length = len(art.tokens)
        raw[:, d] += length * factors.H[j, :]

    raw_series = tuple(
        DatedSeries(first, raw[i], label=f"topic_{i}_raw") for i in kept
    )
    smoothed = np.stack(
        [sliding_mean(s, window_days).values for s in raw_series]
    )

    if mode == "per_day_share":
        denom = smoothed.sum(axis=0)
        out = np.divide(
            smoothed,
            denom[None, :],
            out=np.zeros_like(smoothed),
            where=denom[None, :] > 0,
        )
    elif mode == "per_topic_area":
        area = smoothed.sum(axis=1)
        out = np.divide(
            smoothed,
            area[:, None],
            out=np.zeros_like(smoothed),
            where=area[:, None] > 0,
        )
    else:
        out = smoothed

    topics = tuple(
        DatedSeries(first, out[pos], label=f"topic_{i}")
        for pos, i in enumerate(kept)
    )
    return TopicCoverage(
        topics=topics, raw=raw_series, topic_ids=tuple(kept), mode=mode
    )


def agenda_profile(coverage: TopicCoverage) -> np.ndarray:
    """Whole-period share of raw coverage per kept topic (sums to one)."""
    totals = np.array([s.values.sum() for s in coverage.raw])
    grand = totals.sum()
    if grand <= 0:
        raise ValueError("no topic carries any coverage weight")
    return totals / grand
