import math
import random

import numpy as np
import pytest

from newslens.corpus import tokenize
from newslens.vectorize import (
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    tfidf_matrix,
)

from conftest import make_article


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

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("123 !@# _") == []


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
        vocab = build_vocabulary(arts, min_df=2)
        assert vocab.terms == ("apple", "mango", "zebra")

    def test_df_counts_documents_not_occurrences(self):
        arts = [
            make_article(id="a1", title="", body="apple apple apple"),
            make_article(id="a2", title="", body="pear"),
            make_article(id="a3", title="", body="pear"),
        ]
        vocab = build_vocabulary(arts, min_df=2)
        assert "apple" not in vocab
        assert "pear" in vocab

    def test_stopwords_removed(self):
        arts = [
            make_article(id="a1", title="", body="apple pear"),
            make_article(id="a2", title="", body="apple pear"),
        ]
        vocab = build_vocabulary(arts, stopwords=frozenset({"pear"}), min_df=2)
        assert vocab.terms == ("apple",)

    def test_title_participates(self):
        arts = [
            make_article(id="a1", title="orchard", body="apple"),
            make_article(id="a2", title="orchard", body="apple"),
        ]
        vocab = build_vocabulary(arts, min_df=2)
        assert "orchard" in vocab

    def test_empty_vocabulary_rejected(self):
        arts = [make_article(id="a1", title="", body="unique words only here")]
        with pytest.raises(ValueError, match="empty"):
            build_vocabulary(arts, min_df=2)

    def test_min_df_one_keeps_everything(self):
        arts = [make_article(id="a1", title="", body="apple pear")]
        vocab = build_vocabulary(arts, min_df=1)
        assert vocab.terms == ("apple", "pear")


class TestTfidfMatrix:
    def corpus(self):
        return [
            make_article(id="a2", title="", body="apple apple pear"),
            make_article(id="a1", title="", body="apple kiwi"),
            make_article(id="a3", title="", body="pear kiwi kiwi"),
        ]

    def test_rows_ordered_by_article_id(self):
        vocab = build_vocabulary(self.corpus(), min_df=1)
        dtm = tfidf_matrix(self.corpus(), vocab)
        assert dtm.doc_ids == ("a1", "a2", "a3")

    def test_hand_computed_weights(self):
        vocab = build_vocabulary(self.corpus(), min_df=1)
        dtm = tfidf_matrix(self.corpus(), vocab)
        # a2 row: tf(apple)=2, tf(pear)=1 over D=3 docs
        idf_apple = math.log(4.0 / 3.0) + 1.0  # df=2
        idf_pear = math.log(4.0 / 3.0) + 1.0  # df=2
        raw = np.zeros(3)
        raw[vocab.index["apple"]] = 2 * idf_apple
        raw[vocab.index["pear"]] = 1 * idf_pear
        expected = raw / np.linalg.norm(raw)
        got = dtm.matrix.toarray()[list(dtm.doc_ids).index("a2")]
        assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_rows_unit_norm(self):
        vocab = build_vocabulary(self.corpus(), min_df=1)
        dtm = tfidf_matrix(self.corpus(), vocab)
        norms = np.sqrt(np.asarray(dtm.matrix.multiply(dtm.matrix).sum(axis=1)))
        assert np.allclose(norms, 1.0)

    def test_out_of_vocabulary_doc_dropped_with_warning(self, caplog):
        arts = self.corpus() + [make_article(id="a0", title="", body="zzz qqq")]
        vocab = build_vocabulary(self.corpus(), min_df=1)
        with caplog.at_level("WARNING", logger="newslens.vectorize"):
            dtm = tfidf_matrix(arts, vocab)
        assert dtm.doc_ids == ("a1", "a2", "a3")
        assert any("a0" in rec.message for rec in caplog.records)

    def test_all_docs_dropped_rejected(self):
        vocab = Vocabulary(("nowhere",))
        with pytest.raises(ValueError, match="dropped"):
            tfidf_matrix(self.corpus(), vocab)

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
            vocab = build_vocabulary(arts, min_df=1)
            dtm = tfidf_matrix(arts, vocab)
            dense = dtm.matrix.toarray()
            assert dense.min() >= 0.0
            assert np.allclose(np.linalg.norm(dense, axis=1), 1.0)
            assert list(dtm.doc_ids) == sorted(dtm.doc_ids)
            # a term absent from a document stays zero
            for i, doc_id in enumerate(dtm.doc_ids):
                art = next(a for a in arts if a.id == doc_id)
                present = set(tokenize(art.body))
                for term, j in vocab.index.items():
                    if term not in present:
                        assert dense[i, j] == 0.0
