"""The tf-idf document-term matrix of a corpus and its vocabulary."""

from __future__ import annotations

import logging
import unicodedata
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count

import numpy as np
import scipy.sparse as sp

from .corpus import Article, tokenize

__all__ = [
    "load_stopwords",
    "Vocabulary",
    "DocTermMatrix",
    "tfidf_matrix",
]

log = logging.getLogger(__name__)

def load_stopwords(path) -> frozenset[str]:
    """A term list, one term per line: a stoplist or a lexicon marker list.

    Blank lines and lines starting with # are skipped; terms are
    NFC-normalized and lowercased, as ``tokenize`` makes tokens.
    """
    terms = set()
    with open(path, encoding="utf-8-sig") as fh:
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
    ``tfidf_matrix``; ``doc_ids[i]`` names the article behind row i and
    ``doc_lengths[i]`` counts that article's tokens, title plus body.
    """

    matrix: sp.csr_matrix
    doc_ids: tuple[str, ...]
    vocab: Vocabulary
    doc_lengths: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape[0] != len(self.doc_ids):
            raise ValueError("row count does not match doc_ids")
        if self.matrix.shape[1] != len(self.vocab):
            raise ValueError("column count does not match vocabulary")
        if len(self.doc_lengths) != len(self.doc_ids):
            raise ValueError("doc_lengths count does not match doc_ids")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def tfidf_matrix(
    articles: list[Article],
    stopwords: frozenset[str] = frozenset(),
    min_df: int = 2,
) -> DocTermMatrix:
    """L2-normalized tf-idf rows over the corpus vocabulary, ordered by article id.

    Each article is tokenized once, as ``tokenize(title + "\\n" + body)``.
    The vocabulary is every token in >= min_df articles, minus
    stopwords, sorted; document frequency counts each article once per
    unique term.  tf is the raw in-document count; idf(t) =
    ln((1 + D) / (1 + df_t)) + 1 with D the number of input articles.
    A row's norm is the square root of a sequential sum of its squared
    weights, taken in the order the article's terms first occur (not a
    pairwise or compensated sum), so its bits do not depend on the
    Python or numpy version.  Articles containing no vocabulary term
    are dropped with a warning.  ``doc_lengths`` holds each kept
    article's token count.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not articles:
        raise ValueError("no articles")
    ordered = sorted(articles, key=lambda a: a.id)
    n_docs = len(ordered)

    # Every token goes straight to a corpus-wide id, numbered as first
    # met; of the strings, only one per distinct term is kept.
    term_id: defaultdict[str, int] = defaultdict(count().__next__)
    ids = array("i")
    lengths = np.empty(n_docs, dtype=np.int64)
    for k, art in enumerate(ordered):
        tokens = tokenize(art.title + "\n" + art.body)
        lengths[k] = len(tokens)
        ids.extend(map(term_id.__getitem__, tokens))
    terms = sorted(term_id)
    n_ids = len(terms)
    # rank[id] is the id's place in term order, so (doc, rank) order is
    # CSR order; term_id iterates in id order.
    position = {t: r for r, t in enumerate(terms)}
    rank = np.fromiter(map(position.__getitem__, term_id), np.int32, n_ids)
    del term_id, position

    # One key per token, doc * n_ids + rank; a stable sort groups each
    # (doc, term) pair with its first occurrence at the front.
    key_type = np.int32 if n_docs * n_ids < 2**31 else np.int64
    keys = np.repeat(np.arange(n_docs, dtype=key_type) * n_ids, lengths)
    keys += rank[np.frombuffer(ids, dtype=np.intc)]
    del ids, rank
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Each (doc, term) pair is a run of equal sorted keys; its first
    # element is the pair's first occurrence.  np.unique(keys,
    # return_index=True, return_counts=True) gives the same arrays and
    # report bytes, but raised corpus_12k peak RSS from 78.7-78.9 to
    # 84.6-84.9 MiB (6 runs each), so the runs are found by hand.
    run_start = np.empty(len(keys), dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    del run_start
    first = order[starts]
    del order
    tf = np.diff(starts, append=len(keys))
    pair_doc, pair_term = np.divmod(keys[starts], n_ids)
    del keys, starts

    df = np.bincount(pair_term, minlength=n_ids)
    keep = df >= min_df
    keep &= np.fromiter((t not in stopwords for t in terms), bool, n_ids)
    vocab = Vocabulary(tuple(t for t, k in zip(terms, keep.tolist()) if k))
    if not vocab.terms:
        raise ValueError("vocabulary is empty after min_df and stopword filtering")
    column = np.cumsum(keep, dtype=np.int32) - 1
    idf = np.log((1.0 + n_docs) / (1.0 + df[keep].astype(float))) + 1.0

    in_vocab = keep[pair_term]
    indices = column[pair_term[in_vocab]]
    del pair_term
    pair_doc = pair_doc[in_vocab]
    weights = tf[in_vocab] * idf[indices]
    del tf
    # np.bincount adds each weight to its bin in turn, from 0.0; taking the
    # pairs by first occurrence makes each row's sum the sequential one.
    by_first = np.argsort(first[in_vocab])
    del first, in_vocab
    squares = weights[by_first]
    squares *= squares
    sum_sq = np.bincount(pair_doc[by_first], weights=squares, minlength=n_docs)
    del by_first, squares
    weights /= np.sqrt(sum_sq)[pair_doc]

    row_nnz = np.bincount(pair_doc, minlength=n_docs)
    kept = row_nnz > 0
    for k in np.flatnonzero(~kept).tolist():
        log.warning("article %s has no vocabulary terms; row dropped", ordered[k].id)
    # No check for zero rows: each vocabulary term occurs in >= min_df >= 1
    # of the articles, so at least one row is kept.
    indptr = np.concatenate(([0], np.cumsum(row_nnz[kept])))
    matrix = sp.csr_matrix((weights, indices, indptr), shape=(len(indptr) - 1, len(vocab)))
    return DocTermMatrix(
        matrix=matrix,
        doc_ids=tuple(a.id for a, k in zip(ordered, kept.tolist()) if k),
        vocab=vocab,
        doc_lengths=lengths[kept],
    )
