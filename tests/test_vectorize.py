import math
import random
import re
import tracemalloc
import unicodedata
from array import array
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from newslens.config import load_config
from newslens.corpus import load_articles, tokenize
from newslens.fixture import generate_fixture
from newslens.vectorize import DocTermMatrix, Vocabulary, load_stopwords, tfidf_matrix

from conftest import make_article


def reference_tfidf(articles, stopwords=frozenset(), min_df=2):
    """The former two-step build, vocabulary then matrix, written out as the oracle.

    Each row's norm is an explicit ``+=`` loop in first-occurrence order:
    ``sum()`` is compensated from Python 3.12 on, which would tie the
    oracle's bits to the Python version.
    """
    tokens = {art.id: tokenize(art.title + "\n" + art.body) for art in articles}
    df = Counter()
    for art in articles:
        df.update(set(tokens[art.id]))
    vocab = Vocabulary(tuple(sorted(t for t, c in df.items() if c >= min_df and t not in stopwords)))
    if not vocab.terms:
        raise ValueError("vocabulary is empty after min_df and stopword filtering")
    ordered = sorted(articles, key=lambda a: a.id)
    df = np.zeros(len(vocab))
    for art in ordered:
        df[[vocab.index[t] for t in set(tokens[art.id]) if t in vocab.index]] += 1
    idf = np.log((1.0 + len(ordered)) / (1.0 + df)) + 1.0
    rows, cols, data = array("q"), array("q"), array("d")
    doc_ids, lengths = [], []
    for art in ordered:
        counts = Counter(vocab.index[t] for t in tokens[art.id] if t in vocab.index)
        if not counts:
            continue
        weights = {j: c * idf[j] for j, c in counts.items()}
        sum_sq = 0.0
        for w in weights.values():
            sum_sq += w * w
        norm = math.sqrt(sum_sq)
        i = len(doc_ids)
        for j in sorted(weights):
            rows.append(i)
            cols.append(j)
            data.append(weights[j] / norm)
        doc_ids.append(art.id)
        lengths.append(len(tokens[art.id]))
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(len(doc_ids), len(vocab)), dtype=float)
    return DocTermMatrix(
        matrix=matrix, doc_ids=tuple(doc_ids), vocab=vocab, doc_lengths=np.array(lengths)
    )


def assert_same_matrix(got, expected):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(expected.matrix, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.shape == expected.shape
    assert got.doc_ids == expected.doc_ids
    assert got.vocab.terms == expected.vocab.terms
    assert got.doc_lengths.tolist() == expected.doc_lengths.tolist()


class TestTokenize:
    def test_splits_on_punctuation_and_digits(self):
        assert tokenize("e-mail server 2016") == ["mail", "server"]

    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_drops_single_letters(self):
        assert tokenize("a b cd") == ["cd"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_accents_survive(self):
        assert tokenize("café opened") == ["café", "opened"]

    def test_nfc_applied_before_matching(self):
        # decomposed form tokenizes identically to the composed form
        assert tokenize("café") == tokenize("café")

    def test_other_numerics_stay_in_tokens(self):
        # Decimal digits split tokens; "²" and "½" are numerics, not decimal digits.
        assert tokenize("x²y ab½c a2b") == ["x²y", "ab½c"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("123 !@# _") == []

    def test_matches_letter_runs_then_length_filter(self):
        # The former rule: every run of letters, then runs shorter than two dropped.
        def runs_then_filter(text):
            normalized = unicodedata.normalize("NFC", text).lower()
            return [t for t in re.findall(r"[^\W\d_]+", normalized) if len(t) >= 2]

        rng = random.Random(20240)
        # single letters, digits, underscore, İ (lowercases to i + U+0307),
        # a decomposed é, a circled letter, Greek capitals with a final Σ
        pieces = ["a", "b", "Z", "é", "e\u0301", "İ", "Ⓐ", "Σ", "Ο", "Δ", "ς", "7", "_", " ", "-", "\n"]
        texts = ["İstanbul", "ΟΔΟΣ ΟΔΟΣ.", "x_y 2a b3c", "Ⓐⓑ cafe\u0301"]
        texts += ["".join(rng.choices(pieces, k=rng.randint(0, 12))) for _ in range(2000)]
        for text in texts:
            assert tokenize(text) == runs_then_filter(text), repr(text)


class TestLoadStopwords:
    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# comment\nthe\n\nAnd\n", encoding="utf-8")
        assert load_stopwords(p) == frozenset({"the", "and"})


class TestBuildVocabulary:
    def test_min_df_and_sorting(self):
        arts = [
            make_article(id="a1", title="zebra apple", body="apple"),
            make_article(id="a2", title="apple", body="zebra mango"),
            make_article(id="a3", title="mango", body="kiwi"),
        ]
        # apple df=2, zebra df=2, mango df=2, kiwi df=1
        vocab = tfidf_matrix(arts, min_df=2).vocab
        assert vocab.terms == ("apple", "mango", "zebra")

    def test_df_counts_documents_not_occurrences(self):
        arts = [
            make_article(id="a1", title="", body="apple apple apple"),
            make_article(id="a2", title="", body="pear"),
            make_article(id="a3", title="", body="pear"),
        ]
        vocab = tfidf_matrix(arts, min_df=2).vocab
        assert "apple" not in vocab
        assert "pear" in vocab

    def test_stopwords_removed(self):
        arts = [
            make_article(id="a1", title="", body="apple pear"),
            make_article(id="a2", title="", body="apple pear"),
        ]
        vocab = tfidf_matrix(arts, stopwords=frozenset({"pear"}), min_df=2).vocab
        assert vocab.terms == ("apple",)

    def test_title_participates(self):
        arts = [
            make_article(id="a1", title="orchard", body="apple"),
            make_article(id="a2", title="orchard", body="apple"),
        ]
        vocab = tfidf_matrix(arts, min_df=2).vocab
        assert "orchard" in vocab

    def test_empty_vocabulary_rejected(self):
        arts = [make_article(id="a1", title="", body="unique words only here")]
        with pytest.raises(ValueError, match="empty"):
            tfidf_matrix(arts, min_df=2).vocab

    def test_min_df_one_keeps_everything(self):
        arts = [make_article(id="a1", title="", body="apple pear")]
        vocab = tfidf_matrix(arts, min_df=1).vocab
        assert vocab.terms == ("apple", "pear")


class TestTfidfMatrix:
    def corpus(self):
        return [
            make_article(id="a2", title="", body="apple apple pear"),
            make_article(id="a1", title="", body="apple kiwi"),
            make_article(id="a3", title="", body="pear kiwi kiwi"),
        ]

    def test_rows_ordered_by_article_id(self):
        dtm = tfidf_matrix(self.corpus(), min_df=1)
        assert dtm.doc_ids == ("a1", "a2", "a3")

    def test_hand_computed_weights(self):
        dtm = tfidf_matrix(self.corpus(), min_df=1)
        # a2 row: tf(apple)=2, tf(pear)=1 over D=3 docs
        idf_apple = math.log(4.0 / 3.0) + 1.0  # df=2
        idf_pear = math.log(4.0 / 3.0) + 1.0  # df=2
        raw = np.zeros(3)
        raw[dtm.vocab.index["apple"]] = 2 * idf_apple
        raw[dtm.vocab.index["pear"]] = 1 * idf_pear
        expected = raw / np.linalg.norm(raw)
        got = dtm.matrix.toarray()[list(dtm.doc_ids).index("a2")]
        assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_rows_unit_norm(self):
        dtm = tfidf_matrix(self.corpus(), min_df=1)
        norms = np.sqrt(np.asarray(dtm.matrix.multiply(dtm.matrix).sum(axis=1)))
        assert np.allclose(norms, 1.0)

    def test_out_of_vocabulary_doc_dropped_with_warning(self, caplog):
        # every term of a0 occurs in a0 alone, below min_df
        arts = self.corpus() + [make_article(id="a0", title="", body="zzz qqq")]
        with caplog.at_level("WARNING", logger="newslens.vectorize"):
            dtm = tfidf_matrix(arts, min_df=2)
        assert dtm.doc_ids == ("a1", "a2", "a3")
        assert dtm.vocab.terms == ("apple", "kiwi", "pear")
        assert any("a0" in rec.message for rec in caplog.records)

    def test_min_df_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_df"):
            tfidf_matrix(self.corpus(), min_df=0)

    def test_random_corpora_invariants(self):
        rng = random.Random(20210301)
        words = ["alpha", "bravo", "delta", "echo", "golf", "hotel"]
        for trial in range(20):
            arts = [
                make_article(
                    id=f"d{i:02d}",
                    title="",
                    body=" ".join(rng.choices(words, k=rng.randint(3, 12))),
                )
                for i in range(rng.randint(4, 9))
            ]
            dtm = tfidf_matrix(arts, min_df=1)
            dense = dtm.matrix.toarray()
            assert dense.min() >= 0.0
            assert np.allclose(np.linalg.norm(dense, axis=1), 1.0)
            assert list(dtm.doc_ids) == sorted(dtm.doc_ids)
            # a term absent from a document stays zero
            for i, doc_id in enumerate(dtm.doc_ids):
                art = next(a for a in arts if a.id == doc_id)
                present = set(tokenize(art.body))
                for term, j in dtm.vocab.index.items():
                    if term not in present:
                        assert dense[i, j] == 0.0


class TestMatchesTwoStepReference:
    def test_seed_11_fixture(self, tmp_path):
        files = generate_fixture(tmp_path, seed=11)
        cfg = load_config(files["config"])
        stopwords = load_stopwords(cfg.stopwords)
        for path in cfg.articles.values():
            arts = load_articles(path, cfg.entities)
            expected = reference_tfidf(arts, stopwords, cfg.min_df)
            assert expected.matrix.nnz > 0
            assert_same_matrix(tfidf_matrix(arts, stopwords, cfg.min_df), expected)

    @pytest.mark.parametrize("min_df", [1, 2, 3])
    def test_random_corpora(self, min_df):
        rng = random.Random(min_df)
        words = [f"w{a}{b}" for a in "abcdefgh" for b in "xyz"]
        compared = 0
        for _ in range(25):
            arts = [
                make_article(
                    id=f"d{rng.randrange(1000):03d}-{i}",
                    title=" ".join(rng.choices(words, k=rng.randint(0, 3))),
                    body=" ".join(rng.choices(words, k=rng.randint(0, 15))),
                )
                for i in range(rng.randint(3, 12))
            ]
            stopwords = frozenset(rng.sample(words, rng.randint(0, 4)))
            try:
                expected = reference_tfidf(arts, stopwords, min_df)
            except ValueError:
                with pytest.raises(ValueError, match="empty"):
                    tfidf_matrix(arts, stopwords, min_df)
                continue
            assert_same_matrix(tfidf_matrix(arts, stopwords, min_df), expected)
            compared += 1
        assert compared >= 20


class TestUnicodeOracle:
    def corpus(self):
        return [
            # İ lowercases to two code points, and U+0307 splits the token
            make_article(id="u1", title="İstanbul vote", body="Café harbor vote2016 harbor_tunnel"),
            # decomposed é merges under NFC into the composed café
            make_article(id="u2", title="", body="cafe\u0301 harbor ΟΔΟΣ tunnel"),
            # capital Σ lowercases to the final ς at a word's end
            make_article(id="u3", title="ΟΔΟΣ", body="οδος ναυς harbor stanbul"),
            # every token here occurs in this article alone
            make_article(id="u0", title="Q", body="zz9top x_y"),
        ]

    def test_matches_reference(self, caplog):
        arts = self.corpus()
        with caplog.at_level("WARNING", logger="newslens.vectorize"):
            dtm = tfidf_matrix(arts, min_df=2)
        assert_same_matrix(dtm, reference_tfidf(arts, min_df=2))
        assert dtm.vocab.terms == ("café", "harbor", "stanbul", "tunnel", "οδος")
        assert dtm.vocab.terms[-1].endswith("\u03c2")
        assert [r.message for r in caplog.records] == [
            "article u0 has no vocabulary terms; row dropped"
        ]

    def test_doc_lengths_count_every_token(self):
        arts = {a.id: a for a in self.corpus()}
        dtm = tfidf_matrix(list(arts.values()), min_df=2)
        assert dtm.doc_ids == ("u1", "u2", "u3")
        expected = [
            len(tokenize(arts[i].title + "\n" + arts[i].body)) for i in dtm.doc_ids
        ]
        assert dtm.doc_lengths.tolist() == expected == [7, 4, 5]


class TestMemory:
    def test_peak_on_seed_11_fixture(self, tmp_path):
        files = generate_fixture(tmp_path, seed=11)
        cfg = load_config(files["config"])
        stopwords = load_stopwords(cfg.stopwords)
        (path,) = cfg.articles.values()
        arts = load_articles(path, cfg.entities)
        tracemalloc.start()
        try:
            dtm = tfidf_matrix(arts, stopwords, cfg.min_df)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dtm.matrix.nnz == 60178
        # The former build, which kept every token string, peaked at
        # 4.09 MB on these 1,800 articles; the id arrays peak at 3.10 MB.
        assert peak < 3_600_000
