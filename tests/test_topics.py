import dataclasses
import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from newslens.config import load_config
from newslens.corpus import tokenize
import newslens
from newslens.fixture import FixtureSpec, generate_fixture
from newslens.pipeline import run_pipeline
from newslens.topics import (
    NmfFactors,
    _as_csr,
    _leading_triplets,
    _nndsvd_start,
    agenda_profile,
    nmf_factorize,
    top_keywords,
    topic_weight_series,
)
from newslens.vectorize import Vocabulary, tfidf_matrix

from conftest import build_run_dir, make_article
from test_acceptance import _synthetic_topic_corpus


def random_nonneg(rng, d, t):
    return rng.random((d, t))


class TestNmfFactorize:
    def test_deterministic_without_seed(self):
        # The fit draws no random numbers: the global generators' state
        # does not move it, and there is no seed to pass.
        x = np.random.default_rng(7).random((12, 9))
        a = nmf_factorize(x, n_topics=3)
        np.random.seed(1)
        np.random.random(5)
        b = nmf_factorize(x, n_topics=3)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.errors, b.errors)
        assert "seed" not in inspect.signature(nmf_factorize).parameters

    def test_rank_one_recovered_exactly(self):
        rng = np.random.default_rng(3)
        x = np.outer(rng.random(30) + 0.1, rng.random(20) + 0.1)
        factors = nmf_factorize(x, n_topics=1, tol=1e-12, max_iter=2000)
        assert factors.final_error < 1e-6

    def test_error_history_non_increasing(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            d = int(rng.integers(4, 12))
            t = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(d, t) + 1))
            x = random_nonneg(rng, d, t)
            factors = nmf_factorize(x, n_topics=k)
            e = factors.errors
            assert np.all(e[1:] <= e[:-1] * (1 + 1e-12))

    def test_error_history_shape(self):
        x = np.random.default_rng(5).random((8, 6))
        factors = nmf_factorize(x, n_topics=2)
        assert len(factors.errors) == factors.iterations + 1
        assert factors.errors[-1] == factors.final_error
        # the first entry predates any update: the error of the scaled start
        assert factors.errors[0] > factors.final_error

    def test_factors_non_negative_and_readonly(self):
        x = np.random.default_rng(9).random((10, 7))
        factors = nmf_factorize(x, n_topics=3)
        assert factors.H.min() >= 0.0
        assert factors.W.min() >= 0.0
        with pytest.raises(ValueError):
            factors.H[0, 0] = 1.0
        with pytest.raises(ValueError):
            factors.W[0, 0] = 1.0

    def test_w_rows_unit_norm(self):
        x = np.random.default_rng(13).random((10, 8))
        factors = nmf_factorize(x, n_topics=4)
        assert np.allclose(np.linalg.norm(factors.W, axis=1), 1.0)

    def test_normalization_preserves_product(self):
        x = np.random.default_rng(17).random((9, 9))
        factors = nmf_factorize(x, n_topics=3)
        direct = float(np.linalg.norm(factors.H @ factors.W - x))
        assert direct == pytest.approx(factors.final_error, rel=1e-9)

    def test_accepts_sparse_and_doc_term_matrix(self):
        arts = [
            make_article(id=f"a{i}", title="", body="apple pear kiwi mango " * (i + 1))
            for i in range(4)
        ]
        dtm = tfidf_matrix(arts, min_df=1)
        f1 = nmf_factorize(dtm, n_topics=2)
        f2 = nmf_factorize(dtm.matrix, n_topics=2)
        f3 = nmf_factorize(dtm.matrix.toarray(), n_topics=2)
        assert np.array_equal(f1.H, f2.H)
        assert np.array_equal(f2.H, f3.H)
        assert f1.doc_ids == dtm.doc_ids
        assert f1.vocab is dtm.vocab
        assert f2.vocab is None

    def test_rank_bounds_enforced(self):
        x = np.ones((4, 5))
        with pytest.raises(ValueError, match="n_topics"):
            nmf_factorize(x, n_topics=0)
        with pytest.raises(ValueError, match="n_topics"):
            nmf_factorize(x, n_topics=5)
        nmf_factorize(x, n_topics=4)  # boundary is allowed

    def test_negative_input_rejected(self):
        x = np.ones((3, 3))
        x[1, 2] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            nmf_factorize(x, n_topics=1)

    def test_parameter_validation(self):
        x = np.ones((3, 3))
        with pytest.raises(ValueError, match="tol"):
            nmf_factorize(x, n_topics=1, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            nmf_factorize(x, n_topics=1, max_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.ones((4, 3))
        x[2, 1] = bad
        with pytest.raises(ValueError, match="input matrix must be finite"):
            nmf_factorize(x, n_topics=1)
        with pytest.raises(ValueError, match="input matrix must be finite"):
            nmf_factorize(sp.csr_matrix(x), n_topics=1)

    def test_reconstruction_error_matches_dense_norm(self):
        # The error recorded after iteration n is the norm of the residual
        # of the factors returned by a fit capped at n iterations.
        x = sp.random(40, 30, density=0.2, random_state=23, format="csr")
        for n in range(1, 5):
            factors = nmf_factorize(x, n_topics=2, tol=1e-12, max_iter=n)
            expected = float(np.linalg.norm(factors.H @ factors.W - x.toarray()))
            assert factors.final_error == pytest.approx(expected, rel=1e-9)

    def test_error_on_large_matrix_uses_trace_form(self):
        d = t = 2049
        x = sp.random(d, t, density=2e-4, random_state=31, format="csr")
        factors = nmf_factorize(x, n_topics=2, max_iter=5)
        expected = float(np.linalg.norm(factors.H @ factors.W - x.toarray()))
        assert factors.final_error == pytest.approx(expected, rel=1e-9)


class TestNmfConverged:
    def test_stops_on_tolerance(self):
        x = np.random.default_rng(61).random((10, 8))
        factors = nmf_factorize(x, n_topics=3)
        assert factors.converged is True
        assert factors.iterations < 500

    def test_capped(self):
        x = np.random.default_rng(61).random((10, 8))
        factors = nmf_factorize(x, n_topics=3, max_iter=3)
        assert factors.converged is False
        assert factors.iterations == 3

    def test_converged_on_the_last_allowed_iteration(self):
        # iterations == max_iter on both fits; only the flag tells them apart.
        x = np.random.default_rng(61).random((10, 8))
        n = nmf_factorize(x, n_topics=3).iterations
        last = nmf_factorize(x, n_topics=3, max_iter=n)
        short = nmf_factorize(x, n_topics=3, max_iter=n - 1)
        assert (last.iterations, last.converged) == (n, True)
        assert (short.iterations, short.converged) == (n - 1, False)

    def test_improvement_under_rounding_floor_stops(self):
        # X = H0 @ W0 plus noise of 1e-6: near this fit the expanded-form
        # error carries rounding of a few ulps of ||X||^2, and an improvement
        # under 16 * eps * ||X||^2 / prev is not told apart from it.
        rng = np.random.default_rng(1)
        x = rng.random((30, 2)) @ rng.random((2, 20)) + 1e-6 * rng.random((30, 20))
        x_sq = float(np.sum(x * x))
        tol = 1e-12
        factors = nmf_factorize(x, n_topics=2, tol=tol, max_iter=3000)
        prev, err = factors.errors[:-1], factors.errors[1:]
        floor = 16 * np.finfo(float).eps * x_sq / prev
        stops = np.flatnonzero(prev - err <= np.maximum(tol * prev, floor)) + 1
        assert factors.converged is True
        assert stops.tolist() == [factors.iterations]
        dense = float(np.linalg.norm(factors.H @ factors.W - x))
        assert dense == pytest.approx(factors.final_error, rel=0.01)


class TestNndsvdStart:
    def test_start_ignores_eigenvector_signs(self, monkeypatch):
        # t^2 <= nnz: the Gram route.  Negating an eigenvector negates its
        # u too, which swaps the positive and negative parts exactly.
        x = sp.random(300, 40, density=0.3, random_state=5, format="csr")
        assert 40 * 40 <= x.nnz
        start = _nndsvd_start(x, 5)
        fit = nmf_factorize(x, n_topics=5)
        eigh = np.linalg.eigh
        calls = []

        def flipped(a):
            lam, vec = eigh(a)
            calls.append(a.shape)
            return lam, vec * np.where(np.arange(vec.shape[1]) % 2 == 0, -1.0, 1.0)

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        flipped_start = _nndsvd_start(x, 5)
        flipped_fit = nmf_factorize(x, n_topics=5)
        assert calls == [(40, 40)] * 2
        for a, b in zip(start, flipped_start):
            assert np.array_equal(a, b)
        assert np.array_equal(fit.H, flipped_fit.H)
        assert np.array_equal(fit.W, flipped_fit.W)

    def test_rank_deficient_matrix(self):
        # Rank 2, k = 4: components 3 and 4 are null (s^2 at most
        # max(d, t) * eps * s_1^2), start at mean(X.data) / 100 in every
        # entry, and the fit stays finite.
        rng = np.random.default_rng(19)
        x = rng.random((30, 2)) @ rng.random((2, 20))
        u, s, v = _leading_triplets(_as_csr(x), 4)
        assert s[1] > 0.0 and s[2] == s[3] == 0.0
        ht, w = _nndsvd_start(_as_csr(x), 4)
        fill = x.mean() / 100.0
        assert np.all(ht[2:] == fill) and np.all(w[2:] == fill)
        factors = nmf_factorize(x, n_topics=4)
        assert np.isfinite(factors.H).all() and np.isfinite(factors.W).all()
        assert factors.final_error < 1e-3 * np.linalg.norm(x)

    def test_all_zero_matrix(self):
        # Every component is null and the fill is zero: zero factors, zero error.
        factors = nmf_factorize(sp.csr_matrix((6, 5)), n_topics=2)
        assert not factors.H.any() and not factors.W.any()
        assert factors.errors.tolist() == [0.0, 0.0]

    def test_svds_route_above_gram_bound(self, monkeypatch):
        # t^2 > nnz and k < min(d, t): svds from a fixed start vector.
        import scipy.sparse.linalg as spla

        x = sp.random(300, 200, density=0.05, random_state=7, format="csr")
        assert 200 * 200 > x.nnz
        svds = spla.svds
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svds(a, *args, **kwargs)

        monkeypatch.setattr(spla, "svds", counted)
        u, s, v = _leading_triplets(x, 4)
        a = nmf_factorize(x, n_topics=4)
        b = nmf_factorize(x, n_topics=4)
        assert calls == [(300, 200)] * 3
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.errors, b.errors)
        top = np.linalg.svd(x.toarray(), compute_uv=False)[:4]
        np.testing.assert_allclose(s, top, rtol=1e-10)
        np.testing.assert_allclose(np.abs(v.T @ v), np.eye(4), atol=1e-10)

    def test_full_rank_request_on_wide_matrix(self, monkeypatch):
        # k = docs < terms and t^2 > nnz: svds cannot give min(d, t)
        # triplets, so the docs-side Gram X @ X' is used.
        import scipy.sparse.linalg as spla

        def refuse(*args, **kwargs):
            raise AssertionError("svds called")

        monkeypatch.setattr(spla, "svds", refuse)
        x = sp.random(5, 400, density=0.2, random_state=3, format="csr")
        assert 400 * 400 > x.nnz
        u, s, v = _leading_triplets(x, 5)
        np.testing.assert_allclose(s, np.linalg.svd(x.toarray(), compute_uv=False), rtol=1e-8)
        factors = nmf_factorize(x, n_topics=5)
        assert np.isfinite(factors.H).all() and factors.converged

    def test_fit_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product over threads from about 10,000
        # elements, so a BLAS reduction of a vector that long rounds
        # differently at 1 and 2 threads.  Each thread count runs in its
        # own process: the topics stage on 12,000 documents, whose start
        # normalizes columns of that length, and the exact residual, summed
        # over blocks of 65,520 cells, of six random 12,000 x 40 fits.  The
        # benchmark pins one thread, so it cannot see this.
        spec = FixtureSpec(days=240, docs_per_topic_per_day=10)
        config = generate_fixture(tmp_path, 11, spec)["config"]
        code = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from newslens.config import load_config\n"
            "from newslens.pipeline import run_pipeline\n"
            "from newslens.topics import _as_csr, _residual_sq\n"
            "state = run_pipeline(load_config(sys.argv[1]), through='topics').state\n"
            "f = state.outlets['synth_daily'].factors\n"
            "print(f.H.shape[0], hashlib.sha256(f.H.tobytes() + f.W.tobytes()).hexdigest())\n"
            "for seed in range(6):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    x = _as_csr(rng.random((12000, 40)))\n"
            "    print(_residual_sq(x, rng.random((3, 12000)), rng.random((3, 40))).hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(newslens.__file__).parent.parent))
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-c", code, str(config)],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout.splitlines())
        assert len(outputs[0]) == 7 and outputs[0][0].startswith("12000 ")
        assert outputs[0] == outputs[1]


class TestPlantedTopicsOnFixture:
    # From the former uniform random start, these seeds of the default
    # fixture left one planted topic without a fitted topic: one was split
    # and two merged.  The NNDSVD start recovers all five on each.
    @pytest.mark.parametrize("seed", [13, 35, 36, 38, 41, 47, 54, 55])
    def test_every_planted_topic_recovered(self, tmp_path, seed):
        files = generate_fixture(tmp_path, seed)
        truth = json.loads(files["ground_truth"].read_text(encoding="utf-8"))
        state = run_pipeline(load_config(files["config"]), through="topics").state
        planted = [set(t["terms"]) for t in truth["topics"]]
        keywords = state.outlets[truth["outlet"]].keywords
        # Each fitted topic maps to the planted topic its keywords overlap most.
        mapped = set()
        for words in keywords:
            overlaps = [len(set(words) & terms) for terms in planted]
            mapped.add(overlaps.index(max(overlaps)))
        assert mapped == set(range(len(planted)))


def recovers_planted_topics(seed):
    """Criterion 03's check for one seed: every planted topic of the
    synthetic corpus matches a distinct fitted topic at cosine > 0.8."""
    docs, terms = _synthetic_topic_corpus(seed)
    dtm = tfidf_matrix(docs, stopwords=frozenset(), min_df=2)
    vocab = dtm.vocab
    factors = nmf_factorize(dtm, n_topics=4)
    truth = np.zeros((4, len(vocab.terms)))
    for t, planted in enumerate(terms):
        for term in planted:
            if term in vocab:
                truth[t, vocab.index[term]] = 1.0
    truth /= np.linalg.norm(truth, axis=1, keepdims=True)
    cosines = truth @ factors.W.T  # W rows have unit norm
    best = max(
        itertools.permutations(range(4)),
        key=lambda p: sum(cosines[i, p[i]] for i in range(4)),
    )
    return all(cosines[i, best[i]] > 0.8 for i in range(4))


class TestSweepOrder:
    def test_planted_topics_recovered_on_unseen_seeds(self):
        # Criterion 03 uses seeds 0-9.  Sweeping H before W splits a planted
        # topic on 4 of seeds 10-39; sweeping W first, on none.
        good = [seed for seed in range(10, 40) if recovers_planted_topics(seed)]
        assert len(good) >= 29, f"all topics recovered on {len(good)}/30 seeds"


def frobenius_oracle(x, h, w, x_sq):
    """The error check before the expanded form: a dense residual up to
    4M cells, the trace form above."""
    d, t = x.shape
    if d * t <= 4_000_000:
        diff = h @ w - x.toarray()
        return float(np.sqrt(np.sum(diff * diff)))
    cross = float(np.sum(np.asarray(x @ w.T) * h))
    gram = float(np.sum((h.T @ h) * (w @ w.T)))
    return float(np.sqrt(max(x_sq - 2.0 * cross + gram, 0.0)))


def pairwise_norm(v):
    return np.sqrt(np.sum(v * v))


def nndsvd_oracle(x, k):
    """The NNDSVD start as the docstring states it, before scaling: H
    transposed (k x docs) and W.  The eigen- and singular-value routines
    are the ones nmf_factorize calls, on the same matrices, and norms are
    numpy's pairwise sums, as in nmf_factorize."""
    d, t = x.shape
    if t * t <= x.nnz or k == t:
        lam, vec = np.linalg.eigh((x.T @ x).toarray())
        sq, v = lam[::-1][:k], vec[:, ::-1][:, :k]
        u = np.asarray(x @ v)
    elif k == d:
        lam, vec = np.linalg.eigh((x @ x.T).toarray())
        sq, u = lam[::-1][:k], vec[:, ::-1][:, :k]
        v = np.asarray(x.T @ u)
    else:
        from scipy.sparse.linalg import svds

        u, sv, vt = svds(x, k=k, v0=np.ones(min(d, t)))
        order = np.argsort(-sv, kind="stable")
        u, sq, v = u[:, order], sv[order] ** 2, vt[order].T
    ht = np.zeros((k, d))
    w = np.zeros((k, t))
    for j in range(k):
        if sq[j] <= max(d, t) * np.finfo(float).eps * sq[0]:
            continue  # null component
        s = np.sqrt(sq[j])
        uj = u[:, j] / pairwise_norm(u[:, j])
        vj = v[:, j] / pairwise_norm(v[:, j])
        up, un = np.maximum(uj, 0.0), np.maximum(-uj, 0.0)
        vp, vn = np.maximum(vj, 0.0), np.maximum(-vj, 0.0)
        p = pairwise_norm(up) * pairwise_norm(vp)
        n = pairwise_norm(un) * pairwise_norm(vn)
        if p > n:
            a, b = up, vp
        elif n > p:
            a, b = un, vn
        else:
            a, b = np.abs(uj), np.abs(vj)
        scale = np.sqrt(s * pairwise_norm(a) * pairwise_norm(b))
        ht[j] = scale * a / pairwise_norm(a)
        w[j] = scale * b / pairwise_norm(b)
    fill = x.data.mean() / 100.0 if x.nnz else 0.0
    ht[ht == 0.0] = fill
    w[w == 0.0] = fill
    return ht, w


def hals_rows(factor, gram, rhs):
    """A HALS sweep over the rows of a copy of ``factor``, as the docstring
    writes it."""
    factor = factor.copy()
    for j in range(factor.shape[0]):
        if gram[j, j] > 0:
            factor[j] = np.maximum(factor[j] + (rhs[j] - gram[j] @ factor) / gram[j, j], 0.0)
    return factor


def nmf_oracle(matrix, n_topics, tol=1e-5, max_iter=500):
    """Extrapolated HALS from the NNDSVD start, written out as the
    docstring states it: every product formed where it is used, no buffer
    reused, every pair's error from frobenius_oracle, and the accept and
    stop tests on those errors.  Returns H, W and the error history.

    H is held transposed (k x docs) as nmf_factorize holds it, and the
    products are the ones it forms, on the same CSR matrix, so that H and
    W can agree bit for bit."""
    x = _as_csr(matrix)
    ht, w = nndsvd_oracle(x, n_topics)
    x_sq = float(x.multiply(x).sum())
    # The scale, from <X W', H> and <H'H, WW'> summed as nmf_factorize sums them.
    cross = float(np.trace(ht @ np.asarray(x @ w.T)))
    gram = float(np.vdot(ht @ ht.T, w @ w.T))
    ratio = cross / gram if gram > 0 else 0.0
    ht *= np.sqrt(ratio)
    w *= np.sqrt(ratio)
    floor = 16 * np.finfo(float).eps * x_sq
    errors = [frobenius_oracle(x, ht.T, w, x_sq)]

    def sweep_w(w, ht):
        return hals_rows(w, ht @ ht.T, np.asarray(ht @ x))

    def sweep_h(ht, w):
        return hals_rows(ht, w @ w.T, np.asarray(x @ w.T).T)

    ht_old, w_raw = ht, w
    beta, beta_bar = 0.5, 1.0
    for _ in range(max_iter):
        prev = errors[-1]
        hty = np.maximum(ht + beta * (ht - ht_old), 0.0)
        w_new = sweep_w(w, hty)
        wy = np.maximum(w_new + beta * (w_new - w_raw), 0.0)
        ht_new = sweep_h(ht, wy)
        err = frobenius_oracle(x, ht_new.T, wy, x_sq)
        if err <= prev:
            ht_old, ht, w_raw, w = ht, ht_new, w_new, wy
            beta, beta_bar = min(beta_bar, 1.05 * beta), min(1.0, 1.01 * beta_bar)
        else:
            w = sweep_w(w, ht)
            ht = sweep_h(ht, w)
            err = frobenius_oracle(x, ht.T, w, x_sq)
            ht_old, w_raw = ht, w
            beta, beta_bar = beta / 1.5, beta
        errors.append(err)
        if prev == 0.0 or prev - err <= max(tol * prev, floor / prev):
            break
    norms = np.sqrt(np.sum(w * w, axis=1))
    norms[norms == 0.0] = 1.0
    w = w / norms[:, None]
    ht = ht * norms[:, None]
    return ht.T, w, np.asarray(errors)


def non_canonical_csr(rng, d, t):
    """CSR with duplicate entries and unsorted column indices in every row."""
    indices, data, indptr = [], [], [0]
    for _ in range(d):
        cols = rng.integers(0, t, size=t // 2)
        cols = np.concatenate([cols, cols[:3]])  # duplicates
        indices.extend(cols[::-1])  # unsorted
        data.extend(rng.random(cols.size))
        indptr.append(len(indices))
    x = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(d, t))
    assert not x.has_canonical_format
    return x


class TestNmfErrorsMatchOracle:
    """Reusing products across sweeps and checking the error in expanded
    form leave the fit untouched: H, W and the iteration count equal the
    oracle's exactly.  The errors sum in a different order, so they are
    held to a relative tolerance of 1e-12, fixed before the expanded form
    was first run against the oracle."""

    def check(self, matrix, n_topics, **kwargs):
        factors = nmf_factorize(matrix, n_topics=n_topics, **kwargs)
        h, w, errors = nmf_oracle(matrix, n_topics, **kwargs)
        assert factors.iterations == errors.size - 1
        assert np.array_equal(factors.H, h)
        assert np.array_equal(factors.W, w)
        np.testing.assert_allclose(factors.errors, errors, rtol=1e-12, atol=0.0)
        return factors, errors

    def test_doc_term_matrix(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        state = run_pipeline(cfg, through="ingest").state
        arts = state.outlets["outlet_one"].articles
        dtm = tfidf_matrix(arts, state.stopwords, cfg.min_df)
        self.check(dtm, n_topics=4)

    def test_non_canonical_csr(self):
        # Duplicate entries add up in X, in ||X||^2 as in the products.
        x = non_canonical_csr(np.random.default_rng(41), 30, 20)
        self.check(x, n_topics=3)

    def test_dense_array(self):
        self.check(np.random.default_rng(43).random((25, 18)), n_topics=4)

    def test_trace_form_above_dense_cutoff(self):
        x = sp.random(2001, 2000, density=5e-5, random_state=47, format="csr")
        assert x.shape[0] * x.shape[1] > 4_000_000
        self.check(x, n_topics=2, max_iter=5)

    def test_near_exact_fit(self):
        # X = H0 @ W0 plus noise of 1e-6: the residual is about 1e-7 of
        # ||X||, so ||X||^2 - 2<XWt, H> + <HtH, WWt> cancels about 14
        # digits and the relative bound cannot hold.  What rounding can
        # move is the squared error, by a few ulps of ||X||^2; the bound
        # on it, 1e-12 * ||X||^2, was fixed before the first run.
        rng = np.random.default_rng(59)
        x = np.outer(rng.random(30) + 0.5, rng.random(20) + 0.5)
        x += 1e-6 * rng.random(x.shape)
        x_sq = float(np.sum(x * x))
        factors = nmf_factorize(x, n_topics=1, tol=1e-12, max_iter=50)
        h, w, errors = nmf_oracle(x, 1, tol=1e-12, max_iter=50)
        assert factors.final_error < 1e-6 * np.sqrt(x_sq)
        assert factors.iterations == errors.size - 1
        assert np.array_equal(factors.H, h)
        assert np.array_equal(factors.W, w)
        assert np.all(np.abs(factors.errors**2 - errors**2) <= 1e-12 * x_sq)

    def test_matrix_never_densified(self, monkeypatch):
        calls = []
        toarray = sp.csr_matrix.toarray

        def counted(self, *args, **kwargs):
            calls.append(self.shape)
            return toarray(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "toarray", counted)
        x = np.random.default_rng(53).random((20, 15))
        factors = nmf_factorize(x, n_topics=3, tol=1e-12, max_iter=20)
        assert factors.iterations == 20
        sparse = sp.random(1500, 1000, density=0.01, random_state=53, format="csr")
        tracemalloc.start()
        try:
            nmf_factorize(sparse, n_topics=3, tol=1e-12, max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        # a docs x terms float array alone would be 12 MB
        assert peak < 1500 * 1000 * 8 / 4


class TestTopKeywords:
    def make_factors(self, w, terms):
        return NmfFactors(
            H=np.ones((1, w.shape[0])),
            W=w,
            n_topics=w.shape[0],
            final_error=0.0,
            iterations=0,
            errors=np.array([0.0]),
            doc_ids=("a1",),
            vocab=Vocabulary(tuple(terms)),
        )

    def test_ordering_and_ties(self):
        terms = ("apple", "mango", "pear", "zebra")
        w = np.array([[0.2, 0.9, 0.9, 0.1]])
        factors = self.make_factors(w, terms)
        assert top_keywords(factors, k=3) == [["mango", "pear", "apple"]]

    def test_k_truncates(self):
        terms = ("aa", "bb", "cc")
        w = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        factors = self.make_factors(w, terms)
        assert top_keywords(factors, k=2) == [["aa", "bb"], ["cc", "bb"]]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        factors = self.make_factors(np.array([[3.0, 2.0, 1.0]]), ("aa", "bb", "cc"))
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_keywords(factors, k=k)

    def test_requires_vocabulary(self):
        factors = nmf_factorize(np.ones((3, 3)), n_topics=1)
        with pytest.raises(ValueError, match="vocabulary"):
            top_keywords(factors)


def coverage_fixture(window_days=1, mode="per_day_share", drop=()):
    """Two topics, two docs on consecutive days, hand-sized lengths."""
    arts = [
        make_article(id="a1", day=date(2021, 3, 1), title="", body="apple pear kiwi"),
        make_article(id="a2", day=date(2021, 3, 2), title="", body="apple pear"),
    ]
    h = np.array([[1.0, 0.5], [0.2, 0.8]])
    factors = NmfFactors(
        H=h,
        W=np.ones((2, 4)),
        n_topics=2,
        final_error=0.0,
        iterations=0,
        errors=np.array([0.0]),
        doc_ids=("a1", "a2"),
        doc_lengths=np.array([3, 2]),
    )
    return arts, factors, topic_weight_series(
        factors, arts, window_days=window_days, mode=mode, drop=drop
    )


class TestTopicWeightSeries:
    def test_three_doc_share_case(self):
        # lengths 10, 20, 30 and loadings (1,0), (.5,.5), (0,1) on one day:
        # raw weights (10*1 + 20*.5, 20*.5 + 30*1) = (20, 40), shares (1/3, 2/3)
        bodies = {
            "a1": " ".join(["word"] * 10),
            "a2": " ".join(["word"] * 20),
            "a3": " ".join(["word"] * 30),
        }
        arts = [
            make_article(id=k, day=date(2021, 3, 1), title="", body=v)
            for k, v in bodies.items()
        ]
        factors = NmfFactors(
            H=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
            W=np.ones((2, 30)),
            n_topics=2,
            final_error=0.0,
            iterations=0,
            errors=np.array([0.0]),
            doc_ids=("a1", "a2", "a3"),
            doc_lengths=np.array([10, 20, 30]),
        )
        cov = topic_weight_series(factors, arts, window_days=1, mode="per_day_share")
        assert [s.values[0] for s in cov.raw] == [20.0, 40.0]
        assert cov.topics[0].values[0] == 1.0 / 3.0
        assert cov.topics[1].values[0] == 2.0 / 3.0

    def test_raw_weights_by_hand(self):
        _, _, cov = coverage_fixture(mode="none")
        # doc a1 has 3 tokens, a2 has 2
        assert np.allclose(cov.raw[0].values, [3.0 * 1.0, 2.0 * 0.2])
        assert np.allclose(cov.raw[1].values, [3.0 * 0.5, 2.0 * 0.8])
        assert cov.raw[0].start == date(2021, 3, 1)

    def test_per_day_share_columns_sum_to_one(self):
        _, _, cov = coverage_fixture(mode="per_day_share")
        stack = np.stack([s.values for s in cov.topics])
        assert np.allclose(stack.sum(axis=0), 1.0)
        assert np.allclose(stack[:, 0], [3.0 / 4.5, 1.5 / 4.5])
        assert np.allclose(stack[:, 1], [0.4 / 2.0, 1.6 / 2.0])

    def test_per_topic_area_rows_sum_to_one(self):
        _, _, cov = coverage_fixture(mode="per_topic_area")
        stack = np.stack([s.values for s in cov.topics])
        assert np.allclose(stack.sum(axis=1), 1.0)

    def test_mode_none_equals_smoothed_raw(self):
        _, _, cov = coverage_fixture(window_days=2, mode="none")
        for raw, topic in zip(cov.raw, cov.topics):
            v = raw.values
            smoothed = [sum(v[max(0, d - 1) : d + 1]) / min(d + 1, 2) for d in range(v.size)]
            assert np.allclose(topic.values, smoothed)

    def test_drop_happens_before_normalization(self):
        _, _, cov = coverage_fixture(mode="per_day_share", drop=(1,))
        assert cov.topic_ids == (0,)
        # the surviving topic owns the full share on every covered day
        assert np.allclose(cov.topics[0].values, 1.0)

    def test_gap_days_stay_zero(self):
        arts = [
            make_article(id="a1", day=date(2021, 3, 1), title="", body="apple pear"),
            make_article(id="a2", day=date(2021, 3, 4), title="", body="apple pear"),
        ]
        factors = NmfFactors(
            H=np.array([[1.0], [1.0]]),
            W=np.ones((1, 3)),
            n_topics=1,
            final_error=0.0,
            iterations=0,
            errors=np.array([0.0]),
            doc_ids=("a1", "a2"),
            doc_lengths=np.array([2, 2]),
        )
        cov = topic_weight_series(factors, arts, window_days=1, mode="per_day_share")
        vals = cov.topics[0].values
        assert len(vals) == 4
        assert vals[1] == 0.0 and vals[2] == 0.0
        assert np.all(np.isfinite(vals))

    def test_validation_errors(self):
        arts, factors, _ = coverage_fixture()
        with pytest.raises(ValueError, match="mode"):
            topic_weight_series(factors, arts, mode="sideways")
        with pytest.raises(ValueError, match="window_days"):
            topic_weight_series(factors, arts, window_days=0)
        with pytest.raises(ValueError, match="drop"):
            topic_weight_series(factors, arts, drop=(5,))
        with pytest.raises(ValueError, match="all topics"):
            topic_weight_series(factors, arts, drop=(0, 1))
        with pytest.raises(ValueError, match="missing"):
            topic_weight_series(factors, arts[:1])
        with pytest.raises(ValueError, match="doc_lengths"):
            topic_weight_series(dataclasses.replace(factors, doc_lengths=None), arts)

    def test_doc_lengths_carried_from_matrix(self):
        arts = [
            make_article(id="a2", day=date(2021, 3, 2), title="Pear", body="apple pear kiwi"),
            make_article(id="a1", day=date(2021, 3, 1), title="", body="apple pear, apple"),
            make_article(id="a3", day=date(2021, 3, 2), title="", body="kiwi 9 z"),
        ]
        dtm = tfidf_matrix(arts, min_df=1)
        factors = nmf_factorize(dtm, n_topics=1)
        assert factors.doc_lengths is dtm.doc_lengths
        assert factors.doc_lengths.tolist() == [3, 4, 1]
        assert nmf_factorize(dtm.matrix, n_topics=1).doc_lengths is None

    def test_raw_matches_per_article_loop(self, tmp_path):
        def loop_raw(factors, articles):
            used = [{a.id: a for a in articles}[i] for i in factors.doc_ids]
            first = min(a.date for a in used)
            raw = np.zeros((factors.n_topics, (max(a.date for a in used) - first).days + 1))
            for j, art in enumerate(used):
                length = len(tokenize(art.title + "\n" + art.body))
                raw[:, (art.date - first).days] += length * factors.H[j, :]
            return raw

        rng = np.random.default_rng(71)
        days = rng.integers(0, 30, size=500)
        arts = [
            make_article(id=f"a{j}", day=date(2021, 3, 1) + timedelta(days=int(d)), title="",
                         body="word " * int(rng.integers(1, 60)))
            for j, d in enumerate(days)
        ]
        random_factors = NmfFactors(
            H=rng.random((500, 12)) * 10.0 ** rng.integers(-3, 3, size=(500, 12)),
            W=np.ones((12, 1)),
            n_topics=12,
            final_error=0.0,
            iterations=0,
            errors=np.array([0.0]),
            doc_ids=tuple(a.id for a in reversed(arts)),
            doc_lengths=np.array([len(tokenize(a.body)) for a in reversed(arts)]),
        )
        cfg = load_config(build_run_dir(tmp_path))
        state = run_pipeline(cfg, through="topics").state
        cases = [
            (random_factors, arts),
            (state.outlets["outlet_one"].factors, state.outlets["outlet_one"].articles),
        ]
        for factors, articles in cases:
            cov = topic_weight_series(factors, articles, mode="none")
            got = np.stack([s.values for s in cov.raw])
            assert got.tobytes() == loop_raw(factors, articles).tobytes()


class TestAgendaProfile:
    def test_shares_from_raw_sums(self):
        _, _, cov = coverage_fixture(mode="per_day_share")
        profile = agenda_profile(cov)
        raw_totals = np.array([3.4, 3.1])  # 3.0 + 0.4, 1.5 + 1.6
        assert np.allclose(profile, raw_totals / raw_totals.sum())
        assert profile.sum() == pytest.approx(1.0)

    def test_respects_drop(self):
        _, _, cov = coverage_fixture(drop=(1,))
        profile = agenda_profile(cov)
        assert profile.shape == (1,)
        assert profile[0] == pytest.approx(1.0)

    def test_unsmoothed_even_when_topics_smoothed(self):
        _, _, smooth = coverage_fixture(window_days=2)
        _, _, sharp = coverage_fixture(window_days=1)
        assert np.allclose(agenda_profile(smooth), agenda_profile(sharp))
