"""Acceptance suite: ten numbered end-to-end checks with explicit budgets.

Each test covers one numbered criterion, asserts the stated tolerances,
and prints a single "ACCEPTANCE nn PASS" line on success (run with
``pytest -s tests/test_acceptance.py`` to see them; under ``pytest -v``
the per-test PASSED/FAILED line serves the same purpose).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from newslens.bootstrap import bootstrap_sb
from newslens.config import load_config
from newslens.corpus import Article
from newslens.fixture import generate_fixture
from newslens.pipeline import run_pipeline
from newslens.report import emit_outputs
from newslens.sentiment import MentionRecord, SentimentTally, sentiment_bias, tally_mentions
from newslens.series import DatedSeries
from newslens.topics import NmfFactors, nmf_factorize, topic_weight_series
from newslens.tsstats import adf_test, granger_beta, spearman
from newslens.vectorize import tfidf_matrix

START = date(2016, 1, 1)


def _series(values, label="x"):
    return DatedSeries(start=START, values=np.asarray(values, dtype=float), label=label)


def _passed(n: int, message: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"ACCEPTANCE {n:02d} PASS: {message} ({elapsed:.1f}s)")


def _mention(entity: str, sentiment: str) -> MentionRecord:
    return MentionRecord(
        article_id="a", date=START, entity=entity, sentence="s", sentiment=sentiment
    )


def _brute_force_spearman(x, y) -> float:
    """O(n^2) mid-rank oracle independent of the library implementation."""

    def ranks(v):
        out = []
        for a in v:
            below = sum(1 for b in v if b < a)
            tied = sum(1 for b in v if b == a)
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


@pytest.fixture(scope="module")
def fixture_bundle(tmp_path_factory):
    """Bundled synthetic fixture shared by the end-to-end criteria."""
    root = tmp_path_factory.mktemp("acceptance_fixture")
    files = generate_fixture(root / "fixture", seed=11)
    truth = json.loads(files["ground_truth"].read_text(encoding="utf-8"))
    return files, truth


def test_criterion_01_sentiment_bias_worked_values():
    t0 = time.monotonic()
    mentions = [
        _mention("Arden", "positive"),
        _mention("Arden", "positive"),
        _mention("Arden", "positive"),
        _mention("Arden", "negative"),
        _mention("Briggs", "positive"),
        _mention("Briggs", "positive"),
        _mention("Briggs", "negative"),
        _mention("Briggs", "negative"),
        _mention("Briggs", "negative"),
    ]
    sb = sentiment_bias(tally_mentions(mentions, "Arden", "Briggs"))
    assert sb.value == 1.0 / 3.0

    resample = (
        [_mention("Arden", "positive")] * 5
        + [_mention("Briggs", "negative")] * 2
        + [_mention("Briggs", "positive")] * 2
    )
    sb_resample = sentiment_bias(tally_mentions(resample, "Arden", "Briggs"))
    assert sb_resample.value == 5.0 / 9.0
    _passed(1, "worked SB values are exact (1/3 and 5/9)", t0, budget=1.0)


def test_criterion_02_nmf_monotone_error_and_rank1_recovery():
    t0 = time.monotonic()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.random((100, 200))
        factors = nmf_factorize(x, n_topics=8)
        e = factors.errors
        assert np.all(e[1:] <= e[:-1] * (1 + 1e-12)), f"error rose at seed {seed}"

    rng = np.random.default_rng(7)
    rank1 = np.outer(rng.random(60) + 0.5, rng.random(90) + 0.5)
    exact = nmf_factorize(rank1, n_topics=1, tol=1e-12, max_iter=2000)
    assert exact.final_error < 1e-6
    _passed(
        2,
        "NMF error monotone on 50 random matrices; rank-1 error < 1e-6",
        t0,
        budget=30.0,
    )


def _synthetic_topic_corpus(seed: int):
    """200 docs over 4 disjoint 30-term vocabularies, letters only."""
    rng = np.random.default_rng(seed)
    terms = [
        [f"{chr(97 + t)}{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(30)]
        for t in range(4)
    ]
    docs = []
    for d in range(200):
        topic = d % 4
        words = rng.choice(terms[topic], size=40).tolist()
        docs.append(
            Article(
                id=f"d{d:03d}",
                outlet="synthetic",
                date=START,
                title=words[0],
                body=" ".join(words[1:]),
            )
        )
    return docs, terms


def test_criterion_03_topic_recovery_on_synthetic_corpus():
    t0 = time.monotonic()
    good_seeds = 0
    for seed in range(10):
        docs, terms = _synthetic_topic_corpus(seed)
        mat = tfidf_matrix(docs, stopwords=frozenset(), min_df=2)
        vocab = mat.vocab
        factors = nmf_factorize(mat, n_topics=4)

        truth = np.zeros((4, factors.W.shape[1]))
        for t in range(4):
            for term in terms[t]:
                if term in vocab:
                    truth[t, vocab.index[term]] = 1.0
        truth /= np.linalg.norm(truth, axis=1, keepdims=True)
        w_unit = factors.W / np.linalg.norm(factors.W, axis=1, keepdims=True)
        cosines = truth @ w_unit.T

        best = max(
            itertools.permutations(range(4)),
            key=lambda p: sum(cosines[i, p[i]] for i in range(4)),
        )
        if all(cosines[i, best[i]] > 0.8 for i in range(4)):
            good_seeds += 1
    assert good_seeds >= 9, f"only {good_seeds}/10 seeds recovered all topics"
    _passed(
        3,
        f"all 4 planted topics matched (cosine > 0.8) in {good_seeds}/10 seeds",
        t0,
        budget=60.0,
    )


def test_criterion_04_coverage_share_worked_values():
    t0 = time.monotonic()
    arts = [
        Article(id="a1", outlet="o", date=START, title="", body=" ".join(["word"] * 10)),
        Article(id="a2", outlet="o", date=START, title="", body=" ".join(["word"] * 20)),
        Article(id="a3", outlet="o", date=START, title="", body=" ".join(["word"] * 30)),
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
    _passed(4, "coverage shares are exact (raw 20/40, shares 1/3 and 2/3)", t0, budget=1.0)


def test_criterion_05_spearman_matches_brute_force_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20160501)
    checked = 0
    saw_ties = 0
    while checked < 1000:
        n = int(rng.integers(3, 11))
        x = rng.integers(0, 8, size=n).astype(float) / 4.0
        y = rng.integers(0, 8, size=n).astype(float) / 4.0
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        got = spearman(_series(x), _series(y))
        assert got == _brute_force_spearman(x, y)
        checked += 1
        if len(set(x)) < n or len(set(y)) < n:
            saw_ties += 1
    assert saw_ties > 500, "tie coverage too thin to be meaningful"

    up = _series([1.0, 2.5, 3.0, 7.0, 11.0])
    down = _series([5.0, 4.0, 2.0, 1.5, 0.0])
    assert spearman(up, _series([2.0, 4.0, 5.0, 6.0, 9.0])) == 1.0
    assert spearman(up, down) == -1.0
    _passed(
        5,
        f"spearman equals the O(n^2) oracle exactly on 1000 instances ({saw_ties} with ties)",
        t0,
        budget=30.0,
    )


def test_criterion_06_adf_size_and_power_calibration():
    t0 = time.monotonic()
    noise_rejects = 0
    walk_rejects = 0
    for seed in range(100, 200):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(200)
        walk = np.cumsum(rng.standard_normal(200))
        if adf_test(_series(noise)).reject_5pct:
            noise_rejects += 1
        if adf_test(_series(walk)).reject_5pct:
            walk_rejects += 1
    assert noise_rejects >= 90, f"white noise rejected in only {noise_rejects}/100"
    assert walk_rejects <= 10, f"random walk rejected in {walk_rejects}/100"
    _passed(
        6,
        f"ADF rejects white noise {noise_rejects}/100 and random walks {walk_rejects}/100",
        t0,
        budget=60.0,
    )


def test_criterion_07_granger_recovers_planted_lag():
    t0 = time.monotonic()
    high_p_at_wrong_lag = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dx = rng.standard_normal(200)
        noise = rng.standard_normal(200) * 0.1
        dy = np.empty(200)
        dy[:5] = noise[:5]
        dy[5:] = 0.8 * dx[:-5] + noise[5:]
        sx = _series(dx)
        sy = _series(dy)

        at_5 = granger_beta(sy, sx, lag=5)
        assert abs(at_5.beta - 0.8) < 0.1, f"seed {seed}: beta {at_5.beta:.3f}"
        assert at_5.p_value < 0.01, f"seed {seed}: p {at_5.p_value:.3g}"
        if granger_beta(sy, sx, lag=12).p_value > 0.05:
            high_p_at_wrong_lag += 1
    assert high_p_at_wrong_lag >= 90, f"only {high_p_at_wrong_lag}/100 quiet at lag 12"
    _passed(
        7,
        f"beta within 0.1 and p < 0.01 at the planted lag in 100/100 seeds; "
        f"p > 0.05 at lag 12 in {high_p_at_wrong_lag}/100",
        t0,
        budget=60.0,
    )


def test_criterion_08_bootstrap_interval_coverage():
    t0 = time.monotonic()
    true_sb = 0.45 - 0.35
    trial_seeds = np.random.SeedSequence(20160301).spawn(200)
    contained = 0
    for k, ss in enumerate(trial_seeds):
        rng = np.random.default_rng(ss)
        draws = rng.choice([1, -1, 0], size=500, p=[0.45, 0.35, 0.2])
        tally = SentimentTally(
            "A", "B", pos_a=int(np.sum(draws == 1)), neg_a=int(np.sum(draws == -1)),
            neu_a=int(np.sum(draws == 0)),
        )
        result = bootstrap_sb(tally, n_resamples=1000, seed=k)
        if result.ci_low <= true_sb <= result.ci_high:
            contained += 1
    rate = contained / 200.0
    assert 0.92 <= rate <= 0.98, f"coverage {rate:.3f} outside 95% +/- 3%"
    _passed(
        8,
        f"95% interval covered the true SB in {contained}/200 trials ({rate:.1%})",
        t0,
        budget=120.0,
    )


def _map_topics_to_planted(result, truth):
    """Match each kept NMF topic to the planted topic its keywords come from."""
    planted_terms = [set(t["terms"]) for t in truth["topics"]]
    mapping = {}
    for topic_id in result.coverage.topic_ids:
        keywords = set(result.keywords[topic_id])
        overlaps = [len(keywords & terms) for terms in planted_terms]
        assert max(overlaps) > 0, f"topic {topic_id} keywords match no planted topic"
        mapping[topic_id] = overlaps.index(max(overlaps))
    assert sorted(mapping.values()) == sorted(set(mapping.values())), (
        "keyword mapping is not one-to-one"
    )
    return mapping


def test_criterion_09_fixture_end_to_end(fixture_bundle, tmp_path):
    t0 = time.monotonic()
    files, truth = fixture_bundle
    config = load_config(files["config"])

    bundle_one = run_pipeline(config)
    manifest_one = emit_outputs(bundle_one, tmp_path / "run_one")
    bundle_two = run_pipeline(config)
    manifest_two = emit_outputs(bundle_two, tmp_path / "run_two")

    result = bundle_one.state.outlets[truth["outlet"]]
    mapping = _map_topics_to_planted(result, truth)

    flagged = {
        (mapping[g.topic], g.lag) for g in result.granger if g.p_value < 0.01
    }
    causal = truth["causal"]
    assert flagged == {(causal["topic"], causal["lag"])}, (
        f"flagged {sorted(flagged)}, planted ({causal['topic']}, {causal['lag']})"
    )

    for position, topic_id in enumerate(result.coverage.topic_ids):
        sb = result.sb_by_topic[position]
        assert sb is not None, f"topic {topic_id} has no SB estimate"
        target = truth["topics"][mapping[topic_id]]["sb_target"]
        if target > 0:
            assert sb.value > 0, f"topic {topic_id}: SB {sb.value:.3f}, target {target}"
        elif target < 0:
            assert sb.value < 0, f"topic {topic_id}: SB {sb.value:.3f}, target {target}"
        else:
            assert abs(sb.value) <= 0.1, f"neutral topic drifted to {sb.value:.3f}"

    out = tmp_path / "run_one"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"versions", "rng", "settings", "polls", "outlets"}
    csv_paths = sorted(out.glob("series/*.csv"))
    svg_paths = sorted(out.glob("charts/*.svg"))
    assert csv_paths and svg_paths
    for path in csv_paths:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2 and rows[0][0] == "date"
    for path in svg_paths:
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")

    assert manifest_one["files"] == manifest_two["files"], "manifests differ between runs"
    _passed(
        9,
        "fixture run flags exactly the planted (topic, lag) cell, reproduces SB signs, "
        "and emits stable well-formed outputs",
        t0,
        budget=60.0,
    )


def test_criterion_10_report_identical_across_thread_counts(fixture_bundle, tmp_path):
    t0 = time.monotonic()
    files, _ = fixture_bundle
    digests = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ)
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            env[var] = threads
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "newslens.cli",
                "run",
                "--config",
                str(files["config"]),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1], "report.json differs across thread counts"
    _passed(
        10,
        f"report.json byte-identical across thread counts (sha256 {digests[0][:12]})",
        t0,
        budget=120.0,
    )
