"""The tf-idf document-term matrix of ``Article.tokens`` and its vocabulary."""

from __future__ import annotations

import logging
import math
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Article

__all__ = [
    "load_stopwords",
    "Vocabulary",
    "DocTermMatrix",
    "tfidf_matrix",
]

log = logging.getLogger(__name__)

def load_stopwords(path) -> frozenset[str]:
    """One term per line; blank lines and lines starting with # are skipped."""
    terms = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            term = line.strip()
            if not term or term.startswith("#"):
                continue
            terms.add(unicodedata.normalize("NFC", term).lower())
    return frozenset(terms)


@dataclass(frozen=True)
class Vocabulary:
    """Sorted term list with a reverse index."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document-term matrix with row ids and the column vocabulary.

    Rows are L2-normalized tf-idf vectors when produced by
    ``tfidf_matrix``; ``doc_ids[i]`` names the article behind row i.
    """

    matrix: sp.csr_matrix
    doc_ids: tuple[str, ...]
    vocab: Vocabulary

    def __post_init__(self) -> None:
        if self.matrix.shape[0] != len(self.doc_ids):
            raise ValueError("row count does not match doc_ids")
        if self.matrix.shape[1] != len(self.vocab):
            raise ValueError("column count does not match vocabulary")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def tfidf_matrix(
    articles: list[Article],
    stopwords: frozenset[str] = frozenset(),
    min_df: int = 2,
) -> DocTermMatrix:
    """L2-normalized tf-idf rows over the corpus vocabulary, ordered by article id.

    The vocabulary is every term of ``Article.tokens`` in >= min_df
    articles, minus stopwords, sorted; document frequency counts each
    article once per unique term.  tf is the raw in-document count;
    idf(t) = ln((1 + D) / (1 + df_t)) + 1 with D the number of input
    articles.  Articles containing no vocabulary term are dropped with a
    warning.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not articles:
        raise ValueError("no articles")
    ordered = sorted(articles, key=lambda a: a.id)

    df: Counter[str] = Counter()
    for art in ordered:
        df.update(set(art.tokens))
    terms = sorted(t for t, c in df.items() if c >= min_df and t not in stopwords)
    if not terms:
        raise ValueError("vocabulary is empty after min_df and stopword filtering")
    vocab = Vocabulary(tuple(terms))
    df_terms = np.array([df[t] for t in terms], dtype=float)
    idf = (np.log((1.0 + len(ordered)) / (1.0 + df_terms)) + 1.0).tolist()

    # Typed arrays: lists of Python numbers would take about four times the
    # memory, which stays with the process through the NMF that follows.
    rows, cols, data = array("q"), array("q"), array("d")
    doc_ids: list[str] = []
    index = vocab.index
    for art in ordered:
        # Counter keeps first-occurrence order, which fixes the norm's sum.
        weights = {
            j: c * idf[j] for t, c in Counter(art.tokens).items() if (j := index.get(t)) is not None
        }
        if not weights:
            log.warning("article %s has no vocabulary terms; row dropped", art.id)
            continue
        norm = math.sqrt(sum(w * w for w in weights.values()))
        i = len(doc_ids)
        for j in sorted(weights):
            rows.append(i)
            cols.append(j)
            data.append(weights[j] / norm)
        doc_ids.append(art.id)
    # No check for zero rows: each vocabulary term occurs in >= min_df >= 1
    # of the articles, so at least one row is kept.
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(len(doc_ids), len(vocab)), dtype=float
    )
    return DocTermMatrix(matrix=matrix, doc_ids=tuple(doc_ids), vocab=vocab)
