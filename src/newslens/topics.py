"""Topic decomposition and daily topic coverage.

Factorizes the document-term matrix M (docs x terms) as H @ W with
non-negative factors, by extrapolated hierarchical alternating least
squares from a deterministic NNDSVD start: H holds per-document topic
loadings, W holds per-topic term weights.  Coverage turns the loadings
into one daily series per topic, weighted by document length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Article
from .series import DatedSeries, window_mean
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

# Cells per dense block when the residual is summed directly.
_BLOCK_CELLS = 1 << 16

# Extrapolation constants of Ang & Gillis (2019): beta shrinks by _ETA on a
# discarded iterate; on an accepted one beta grows by _GAMMA and its cap by
# _GAMMA_BAR.
_ETA, _GAMMA, _GAMMA_BAR = 1.5, 1.05, 1.01

NORMALIZATION_MODES = ("per_day_share", "per_topic_area", "none")


@dataclass(frozen=True)
class NmfFactors:
    """Result of a non-negative factorization M ~ H @ W.

    W rows are L2-normalized, with the scale folded into H columns.  The
    fit is deterministic: the same matrix gives the same factors.
    ``errors`` holds the Frobenius reconstruction error of the scaled
    NNDSVD start and of the pair kept by every iteration, an extrapolated
    pair or, when that was discarded, a plain HALS step; it never rises.
    ``doc_ids`` aligns H rows with the articles behind them, and
    ``doc_lengths``, when the input was a ``DocTermMatrix``, with those
    articles' token counts.  ``converged`` is true when the fit stopped
    on its tolerance, false when it ran into the iteration cap.
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
    """The input as a float CSR matrix in canonical form: sorted indices,
    duplicate entries summed (on a copy; the input is left as it is)."""
    if isinstance(matrix, DocTermMatrix):
        x = matrix.matrix.tocsr()
    elif sp.issparse(matrix):
        x = matrix.tocsr().astype(float)
    else:
        x = sp.csr_matrix(np.asarray(matrix, dtype=float))
    if not x.has_canonical_format:
        x = x.copy()
        x.sum_duplicates()
    return x


def nmf_factorize(
    matrix,
    n_topics: int,
    tol: float = 1e-5,
    max_iter: int = 500,
) -> NmfFactors:
    """NMF by extrapolated hierarchical alternating least squares from an
    NNDSVD start, minimizing the Frobenius error.  The fit is
    deterministic: it draws no random numbers.

    Parameters
    ----------
    matrix : DocTermMatrix, scipy sparse matrix, or 2-d array
        Non-negative input, docs in rows.
    n_topics : int
        Factorization rank; must satisfy 1 <= n_topics <= min(docs, terms).
    tol : float
        Stop once the relative error improvement per iteration falls
        to this or below.
    max_iter : int
        Hard iteration cap.

    Start (NNDSVD, Boutsidis & Gallopoulos 2008).  The k = n_topics
    leading singular triplets (s_j, u_j, v_j) of X come from ``eigh`` of
    X' @ X when terms^2 <= nnz(X) or k = terms, from ``eigh`` of X @ X'
    when k = docs < terms, and otherwise from ``scipy.sparse.linalg.svds``
    started from a vector of ones.  A component with s_j^2 at most
    max(docs, terms) * eps * s_1^2, or any component of X = 0, is null
    and contributes nothing.  Each other component, with u_j and v_j of
    unit norm, keeps the larger of its positive and negative parts:
    with p = ||u_j+|| ||v_j+|| and n = ||u_j-|| ||v_j-||, the parts
    (a, b) are (u_j+, v_j+) when p > n, (u_j-, v_j-) when n > p, and
    (|u_j|, |v_j|) on an exact tie; topic j then starts as
    sqrt(s_j ||a|| ||b||) * a / ||a|| in H and the same times b / ||b||
    in W.  Flipping the sign of a singular pair swaps p and n, so the
    start does not depend on it.  Zero entries, a null component's among
    them, are set to mean(X.data) / 100 so that every entry can move, and
    both factors are scaled by sqrt(<X, H @ W> / ||H @ W||^2) so that
    H @ W is the best multiple of itself.

    Sweeps (Cichocki & Phan 2009).  A sweep minimizes the error exactly
    over one topic at a time, every row of W against a fixed H or every
    column of H against a fixed W:

        W[j] <- max(0, W[j] + (HtX[j] - HtH[j] @ W) / HtH[j, j])
        H[:, j] <- max(0, H[:, j] + (XWt[:, j] - H @ WWt[:, j]) / WWt[j, j])

    with HtX = H' @ X, HtH = H' @ H, XWt = X @ W' and WWt = W @ W'.  A
    topic whose Gram diagonal is zero has nothing to fit and is left as
    it is.  No sweep increases the reconstruction error.

    Extrapolation (Ang & Gillis 2019; their eta = 1.5, gamma = 1.05 and
    gamma_bar = 1.01, with beta = 0.5 and beta_bar = 1 at the start).
    From the accepted pair (W, H), the H accepted before it, H_old, and
    the last swept W, W_raw, an iteration forms

        Hy = max(0, H + beta * (H - H_old)),    W_new = W swept against Hy,
        Wy = max(0, W_new + beta * (W_new - W_raw)),    H_new = H swept against Wy.

    If the error of (Wy, H_new) is at most the accepted pair's, that pair
    is accepted, beta becomes min(beta_bar, gamma * beta) and beta_bar
    min(1, gamma_bar * beta_bar).  Otherwise it is discarded and a plain
    iteration runs from the accepted pair (W swept against H, then H
    against the new W); beta_bar becomes beta, beta becomes beta / eta,
    and H_old and W_raw restart from the new pair.  Each iteration records
    one error, so ``errors`` never rises.  After the last iteration W
    rows are L2-normalized and the scale folded into H, leaving H @ W
    unchanged.

    Error and stop.  The error of each pair is computed from the products
    the sweeps need anyway:

        ||X - H @ W||^2 = ||X||^2 - 2 <XWt, H> + <HtH, WWt>,

    with ||X||^2 computed once from the stored entries.  The difference
    carries rounding of a few ulps of ||X||^2, so its square root carries
    about eps * ||X||^2 / error.  Near an exact fit, where the difference
    is at most sqrt(eps) * ||X||^2, that rounding exceeds 16 * sqrt(eps)
    of it and could decide whether an extrapolated pair is kept, so the
    squared residual is summed entry by entry instead, over blocks of
    about 65,536 cells.  X is never made dense as a whole and no docs x
    terms array is allocated.  An improvement of at most
    max(tol * prev, 16 * eps * ||X||^2 / prev), with prev the previous
    error and eps the float64 machine epsilon, counts as none and stops
    the fit.
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

    x_sq = float(np.einsum("i,i->", x.data, x.data))
    floor = _ROUNDING_ULPS * np.finfo(float).eps * x_sq
    near_exact = np.sqrt(np.finfo(float).eps) * x_sq
    row = np.empty(max(d, t))  # work row of the sweeps

    def error(gap: float, ht: np.ndarray, w: np.ndarray) -> float:
        if gap <= near_exact:
            gap = _residual_sq(x, ht, w)
        return float(np.sqrt(max(gap, 0.0)))

    def fit_h(ht: np.ndarray, w: np.ndarray) -> float:
        """Sweep ht against w in place; return the new pair's error."""
        wwt = w @ w.T
        xwt = np.asarray(x @ w.T)
        _sweep(ht, wwt, xwt.T, row[:d])
        gap = x_sq - 2.0 * float(np.trace(ht @ xwt)) + float(np.vdot(ht @ ht.T, wwt))
        return error(gap, ht, w)

    # H is held transposed, k x docs, so that each topic's loadings are one
    # contiguous row.  Besides the accepted H and W there is one spare of
    # each, plus W_new: at the top of an iteration the spares hold H_old and
    # W_raw, which Hy and Wy overwrite; H's spare then takes H_new.  Fresh
    # arrays in every iteration keep every byte and the fit's CPU time, but
    # raised peak RSS: corpus_12k to 83.5-83.6 MiB in 3 of 8 runs, and
    # outlets3_k12 from 82.4-82.5 to 83.2-89.9 MiB.
    ht, w = _nndsvd_start(x, n_topics)
    # Scaling both factors by s scales <X, HW> by s^2 and ||HW||^2 by s^4.
    cross = float(np.trace(ht @ np.asarray(x @ w.T)))
    gram = float(np.vdot(ht @ ht.T, w @ w.T))
    ratio = cross / gram if gram > 0.0 else 0.0
    ht *= np.sqrt(ratio)
    w *= np.sqrt(ratio)
    errors = [error(x_sq - 2.0 * ratio * cross + ratio * ratio * gram, ht, w)]
    ht_spare, w_spare, w_new = ht.copy(), w.copy(), np.empty_like(w)
    beta, beta_bar = 0.5, 1.0
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        prev = errors[-1]
        hty = _extrapolate(ht, ht_spare, beta)
        np.copyto(w_new, w)
        _sweep(w_new, hty @ hty.T, np.asarray(hty @ x), row[:t])
        wy = _extrapolate(w_new, w_spare, beta)
        ht_new = ht_spare
        np.copyto(ht_new, ht)
        err = fit_h(ht_new, wy)
        if err <= prev:
            ht, ht_spare = ht_new, ht
            w, w_spare, w_new = wy, w_new, w
            beta, beta_bar = min(beta_bar, _GAMMA * beta), min(1.0, _GAMMA_BAR * beta_bar)
        else:
            _sweep(w, ht @ ht.T, np.asarray(ht @ x), row[:t])
            err = fit_h(ht, w)
            np.copyto(ht_spare, ht)
            np.copyto(w_spare, w)
            beta, beta_bar = beta / _ETA, beta
        if not np.isfinite(err):
            raise ValueError(f"reconstruction error diverged at iteration {it}")
        errors.append(err)
        iterations = it
        if prev == 0.0 or prev - err <= max(tol * prev, floor / prev):
            converged = True
            break

    norms = np.sqrt(np.sum(w * w, axis=1))
    norms[norms == 0.0] = 1.0
    w /= norms[:, None]
    ht *= norms[:, None]
    h = ht.T

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


def _residual_sq(x: sp.csr_matrix, ht: np.ndarray, w: np.ndarray) -> float:
    """||X - H @ W||^2 summed entry by entry, over blocks of whole rows,
    each by numpy's pairwise sum as in ``_norm``."""
    d, t = x.shape
    rows = max(1, _BLOCK_CELLS // t)
    total = 0.0
    for lo in range(0, d, rows):
        block = x[lo : lo + rows].toarray()
        block -= ht[:, lo : lo + rows].T @ w
        block *= block
        total += float(np.add.reduce(block, axis=None))
    return total


def _extrapolate(cur: np.ndarray, old: np.ndarray, beta: float) -> np.ndarray:
    """max(0, cur + beta * (cur - old)), written over ``old``."""
    np.subtract(cur, old, out=old)
    old *= beta
    old += cur
    return np.maximum(old, 0.0, out=old)


def _sweep(factor: np.ndarray, gram: np.ndarray, rhs: np.ndarray, scratch: np.ndarray) -> None:
    """One HALS pass over the rows of ``factor`` (k x n), in place.

    With the other factor A fixed, ``gram`` = A' @ A and ``rhs`` = A' @ X.
    Row j becomes the non-negative minimizer of ||X - A @ factor||^2 over
    that row alone, the other rows as they stand: rows already swept count
    with their new values.  ``scratch`` is a length-n work row.
    """
    for j in range(factor.shape[0]):
        g = gram[j, j]
        if g > 0.0:
            np.dot(gram[j], factor, out=scratch)
            np.subtract(rhs[j], scratch, out=scratch)
            scratch /= g
            scratch += factor[j]
            np.maximum(scratch, 0.0, out=factor[j])


def _norm(v: np.ndarray) -> float:
    """||v||, by numpy's pairwise sum: BLAS dot products of long vectors
    round differently at different thread counts."""
    return float(np.sqrt(np.add.reduce(v * v)))


def _nndsvd_start(x: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The NNDSVD start that ``nmf_factorize`` describes, before scaling:
    H transposed (k x docs) and W (k x terms)."""
    d, t = x.shape
    u, s, v = _leading_triplets(x, k)
    ht = np.zeros((k, d))
    w = np.zeros((k, t))
    for j in range(k):
        if s[j] == 0.0:
            continue
        uj = u[:, j] / _norm(u[:, j])
        vj = v[:, j] / _norm(v[:, j])
        up, vp = np.maximum(uj, 0.0), np.maximum(vj, 0.0)
        un, vn = np.maximum(-uj, 0.0), np.maximum(-vj, 0.0)
        p = _norm(up) * _norm(vp)
        n = _norm(un) * _norm(vn)
        a, b = (up, vp) if p > n else (un, vn) if n > p else (np.abs(uj), np.abs(vj))
        norm_a, norm_b = _norm(a), _norm(b)
        scale = np.sqrt(s[j] * norm_a * norm_b)
        ht[j] = scale * a / norm_a
        w[j] = scale * b / norm_b
    fill = x.data.mean() / 100.0 if x.nnz else 0.0
    ht[ht == 0.0] = fill
    w[w == 0.0] = fill
    return ht, w


def _leading_triplets(x: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k leading singular values of x, largest first, with their left
    (docs x k) and right (terms x k) singular vectors up to a positive
    scale, by the route ``nmf_factorize`` describes.  A null component's
    singular value is zero and its vectors are not to be read."""
    d, t = x.shape
    if not x.data.any():  # X = 0: every component is null
        return np.zeros((d, k)), np.zeros(k), np.zeros((t, k))
    if t * t <= x.nnz or k == t:
        sq, v = _top_eigh((x.T @ x).toarray(), k)
        u = np.asarray(x @ v)
    elif k == d:
        sq, u = _top_eigh((x @ x.T).toarray(), k)
        v = np.asarray(x.T @ u)
    else:
        # Imported here: it costs about half a second, and only matrices
        # with more than sqrt(nnz) terms come this way.
        from scipy.sparse.linalg import svds

        u, sv, vt = svds(x, k=k, v0=np.ones(min(d, t)))
        order = np.argsort(-sv, kind="stable")
        u, sq, v = u[:, order], sv[order] ** 2, vt[order].T
    null = sq <= max(d, t) * np.finfo(float).eps * sq[0]
    return u, np.sqrt(np.where(null, 0.0, sq)), v


def _top_eigh(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of a symmetric matrix, largest first,
    and their eigenvectors as columns."""
    lam, vec = np.linalg.eigh(gram)
    return lam[::-1][:k], vec[:, ::-1][:, :k]


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
    ``tfidf_matrix`` recorded.  The series span the days of ``articles``,
    first to last, as the outlet's mention series do: a day whose
    articles have no row in ``factors`` (no vocabulary term) has zero raw
    weight.  Raw series are smoothed with a trailing ``window_days``
    mean, then normalized:

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
    first = min(a.date for a in articles)
    last = max(a.date for a in articles)
    n_days = (last - first).days + 1
    days = np.array([(a.date - first).days for a in used], dtype=np.intp)
    lengths = np.asarray(factors.doc_lengths, dtype=float)
    raw = np.zeros((factors.n_topics, n_days))
    # Unbuffered, in article order: each day sums its articles as a loop would.
    np.add.at(raw.T, days, lengths[:, None] * factors.H)

    raw_series = tuple(
        DatedSeries(first, raw[i], label=f"topic_{i}_raw") for i in kept
    )
    smoothed = window_mean(raw[kept], np.ones(n_days), window_days)

    out = smoothed
    if mode != "none":
        total = smoothed.sum(axis=0 if mode == "per_day_share" else 1, keepdims=True)
        out = np.divide(smoothed, total, out=np.zeros_like(smoothed), where=total > 0)

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
