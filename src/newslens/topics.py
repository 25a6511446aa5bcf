"""Topic decomposition and daily topic coverage.

Factorizes the document-term matrix M (docs x terms) as H @ W with
non-negative factors, by hierarchical alternating least squares: H holds
per-document topic loadings, W holds per-topic term weights.  Coverage
turns the loadings into one daily series per topic, weighted by document
length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Article
from .series import DatedSeries, sliding_mean
from .vectorize import DocTermMatrix, Vocabulary

__all__ = [
    "NmfFactors",
    "nmf_factorize",
    "top_keywords",
    "TopicCoverage",
    "topic_weight_series",
    "agenda_profile",
]

# Ulps of ||X||^2 that the expanded-form squared error may be off by.
_ROUNDING_ULPS = 16

NORMALIZATION_MODES = ("per_day_share", "per_topic_area", "none")


@dataclass(frozen=True)
class NmfFactors:
    """Result of a non-negative factorization M ~ H @ W.

    W rows are L2-normalized, with the scale folded into H columns.
    ``errors`` holds the Frobenius reconstruction error of the scaled
    start and after every full iteration (one sweep over the rows of W,
    then one over the columns of H); ``doc_ids`` aligns H rows with the
    articles behind them, and ``doc_lengths``, when the input was a
    ``DocTermMatrix``, with those articles' token counts.  ``converged``
    is true when the fit stopped on its tolerance, false when it ran
    into the iteration cap.
    """

    H: np.ndarray
    W: np.ndarray
    n_topics: int
    final_error: float
    iterations: int
    errors: np.ndarray
    doc_ids: tuple[str, ...]
    vocab: Vocabulary | None = None
    converged: bool = False
    doc_lengths: np.ndarray | None = None


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, DocTermMatrix):
        return matrix.matrix.tocsr()
    if sp.issparse(matrix):
        return matrix.tocsr().astype(float)
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def nmf_factorize(
    matrix,
    n_topics: int,
    seed: int,
    tol: float = 1e-5,
    max_iter: int = 500,
) -> NmfFactors:
    """NMF by hierarchical alternating least squares, minimizing the
    Frobenius error.

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
        to this or below.
    max_iter : int
        Hard iteration cap.

    Both factors start from uniform (0, 1] draws, scaled by
    sqrt(<X, H @ W> / ||H @ W||^2) so that H @ W is the best multiple of
    itself; an unscaled start overshoots and the first sweep zeroes most
    topics.  Each iteration (Cichocki & Phan 2009) then minimizes the
    error exactly over one topic at a time, first every row of W, then
    every column of H:

        W[j] <- max(0, W[j] + (HtX[j] - HtH[j] @ W) / HtH[j, j])
        H[:, j] <- max(0, H[:, j] + (XWt[:, j] - H @ WWt[:, j]) / WWt[j, j])

    with HtX = H' @ X and HtH = H' @ H fixed during the W sweep, XWt =
    X @ W' and WWt = W @ W' during the H sweep.  A topic whose Gram
    diagonal is zero has nothing to fit and is left as it is.  No sweep
    increases the reconstruction error.  After convergence W rows are
    L2-normalized and the scale folded into H, leaving H @ W unchanged.

    The error is checked after every iteration from the products the
    sweeps need anyway:

        ||X - H @ W||^2 = ||X||^2 - 2 <XWt, H> + <HtH, WWt>,

    with ||X||^2 computed once from the stored entries.  X is never made
    dense and no docs x terms array is allocated.  Rounding can leave the
    difference slightly negative near an exact fit, so it is clamped at
    zero.  The difference carries rounding of a few ulps of ||X||^2, so
    its square root carries about eps * ||X||^2 / error; an improvement
    of at most max(tol * prev, 16 * eps * ||X||^2 / prev), with prev the
    previous error and eps the float64 machine epsilon, counts as none
    and stops the fit.
    """
    x = _as_csr(matrix)
    d, t = x.shape
    if not 1 <= n_topics <= min(d, t):
        raise ValueError(f"n_topics must be in [1, {min(d, t)}], got {n_topics}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not np.isfinite(x.data).all():
        raise ValueError("input matrix must be finite")
    if x.nnz and x.data.min() < 0:
        raise ValueError("input matrix must be non-negative")

    x_sq = float(x.multiply(x).sum())  # sums any duplicate entries first
    floor = _ROUNDING_ULPS * np.finfo(float).eps * x_sq

    def error(cross: float, gram: float) -> float:
        return float(np.sqrt(max(x_sq - 2.0 * cross + gram, 0.0)))

    rng = np.random.default_rng(seed)
    # 1 - random() lies in (0, 1]: strictly positive starting factors.
    h = 1.0 - rng.random((d, n_topics))
    w = 1.0 - rng.random((n_topics, t))

    # Scaling both factors by s scales <X, HW> by s^2 and ||HW||^2 by s^4.
    cross = float(np.sum(np.asarray(x @ w.T) * h))
    gram = float(np.sum((h.T @ h) * (w @ w.T)))
    ratio = cross / gram
    h *= np.sqrt(ratio)
    w *= np.sqrt(ratio)
    errors = [error(ratio * cross, ratio * ratio * gram)]
    hth = h.T @ h
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        _sweep(w, hth, np.asarray(h.T @ x))
        xwt = np.asarray(x @ w.T)
        wwt = w @ w.T
        _sweep(h.T, wwt, xwt.T)
        hth = h.T @ h
        err = error(float(np.sum(xwt * h)), float(np.sum(hth * wwt)))
        if not np.isfinite(err):
            raise ValueError(f"reconstruction error diverged at iteration {it}")
        prev = errors[-1]
        errors.append(err)
        iterations = it
        if prev == 0.0 or prev - err <= max(tol * prev, floor / prev):
            converged = True
            break

    norms = np.sqrt(np.sum(w * w, axis=1))
    norms[norms == 0.0] = 1.0
    w /= norms[:, None]
    h *= norms[None, :]

    if isinstance(matrix, DocTermMatrix):
        doc_ids, vocab, doc_lengths = matrix.doc_ids, matrix.vocab, matrix.doc_lengths
    else:
        doc_ids, vocab, doc_lengths = tuple(str(i) for i in range(d)), None, None
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
        converged=converged,
        doc_lengths=doc_lengths,
    )


def _sweep(factor: np.ndarray, gram: np.ndarray, rhs: np.ndarray) -> None:
    """One HALS pass over the rows of ``factor`` (k x n), in place.

    With the other factor A fixed, ``gram`` = A' @ A and ``rhs`` = A' @ X.
    Row j becomes the non-negative minimizer of ||X - A @ factor||^2 over
    that row alone, the other rows as they stand: rows already swept count
    with their new values.
    """
    for j in range(factor.shape[0]):
        if gram[j, j] > 0.0:
            step = (rhs[j] - gram[j] @ factor) / gram[j, j]
            factor[j] = np.maximum(factor[j] + step, 0.0)


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
    documents j published on d, where length(j) is
    ``factors.doc_lengths[j]``, the token count of title plus body that
    ``tfidf_matrix`` recorded.  Raw series are smoothed with a trailing
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
    if factors.doc_lengths is None:
        raise ValueError("factors carry no doc_lengths; factorize a DocTermMatrix")
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
    days = np.array([(a.date - first).days for a in used], dtype=np.intp)
    lengths = np.asarray(factors.doc_lengths, dtype=float)
    raw = np.zeros((factors.n_topics, n_days))
    # Unbuffered, in article order: each day sums its articles as a loop would.
    np.add.at(raw.T, days, lengths[:, None] * factors.H)

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
