"""Entity mention extraction and sentiment-bias scoring.

The bias statistic contrasts two entities A and B over a set of labeled
mentions: each positive mention of A or negative mention of B
contributes +1, each negative mention of A or positive mention of B
contributes -1, neutral mentions contribute 0, and the sum is divided by
the total number of mentions of either entity (neutral included).
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .corpus import Article, EntitySpec, tokenize
from .series import DatedSeries, pooled_window_mean

__all__ = [
    "SENTIMENT_CLASSES",
    "Lexicon",
    "load_lexicon",
    "default_lexicon",
    "score_sentence",
    "extract_mentions",
    "MentionRecord",
    "mention_records",
    "load_labels",
    "SentimentTally",
    "tally_mentions",
    "SbStatistic",
    "sentiment_bias",
    "mention_value",
    "sb_series",
    "per_topic_sb",
]

log = logging.getLogger(__name__)

_DAY = timedelta(days=1)

SENTIMENT_CLASSES = (
    "very_negative",
    "negative",
    "neutral",
    "positive",
    "very_positive",
)
_POSITIVE = {"positive", "very_positive"}
_NEGATIVE = {"negative", "very_negative"}

_VALENCES = {-2, -1, 1, 2}


@dataclass(frozen=True)
class Lexicon:
    """Term valences plus negator/intensifier/diminisher marker sets."""

    valence: dict[str, int]
    negators: frozenset[str]
    intensifiers: frozenset[str]
    diminishers: frozenset[str]


def _load_terms(path) -> frozenset[str]:
    terms = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            term = line.strip()
            if term and not term.startswith("#"):
                terms.add(term.lower())
    return frozenset(terms)


def load_lexicon(valence_path, negators_path, intensifiers_path, diminishers_path) -> Lexicon:
    """Valence file is TSV ``term<TAB>valence`` with valence in {-2,-1,1,2}."""
    valence: dict[str, int] = {}
    with open(valence_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{valence_path}:{lineno}: expected term<TAB>valence")
            term = parts[0].strip().lower()
            try:
                val = int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{valence_path}:{lineno}: non-integer valence") from exc
            if val not in _VALENCES:
                raise ValueError(f"{valence_path}:{lineno}: valence {val} not in {{-2,-1,1,2}}")
            if term in valence:
                raise ValueError(f"{valence_path}:{lineno}: duplicate term {term!r}")
            valence[term] = val
    if not valence:
        raise ValueError(f"{valence_path}: empty lexicon")
    return Lexicon(
        valence=valence,
        negators=_load_terms(negators_path),
        intensifiers=_load_terms(intensifiers_path),
        diminishers=_load_terms(diminishers_path),
    )


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    from importlib.resources import files

    data = files("newslens") / "data"
    return load_lexicon(
        data / "lexicon.tsv",
        data / "negators.txt",
        data / "intensifiers.txt",
        data / "diminishers.txt",
    )


# --- rule scorer ----------------------------------------------------------

def score_sentence(text: str, lexicon: Lexicon) -> str:
    """Five-class sentiment from summed token valences.

    An intensifier immediately before a valenced token doubles it, a
    diminisher halves it, and any negator within the three preceding
    tokens flips its sign.  The summed score s maps to classes at
    s <= -2, s < 0, s == 0, s < 2, and s >= 2.
    """
    toks = tokenize(text)
    score = 0.0
    for i, tok in enumerate(toks):
        base = lexicon.valence.get(tok)
        if base is None:
            continue
        val = float(base)
        if i > 0:
            prev = toks[i - 1]
            if prev in lexicon.intensifiers:
                val *= 2.0
            elif prev in lexicon.diminishers:
                val *= 0.5
        if any(t in lexicon.negators for t in toks[max(0, i - 3) : i]):
            val = -val
        score += val
    if score <= -2.0:
        return "very_negative"
    if score < 0.0:
        return "negative"
    if score == 0.0:
        return "neutral"
    if score < 2.0:
        return "positive"
    return "very_positive"


# --- mention extraction ---------------------------------------------------

_CLAUSE_SPLIT = re.compile(r"[,;]|\b(?:and|but|or|nor|yet|so)\b", re.IGNORECASE)


def extract_mentions(
    article: Article, entities: tuple[EntitySpec, ...]
) -> list[tuple[int, EntitySpec, str]]:
    """(sentence index, entity, clause) triples for every entity mention.

    A sentence naming exactly one entity yields one mention carrying the
    whole sentence.  A sentence naming several is split into clauses at
    commas, semicolons, and coordinating conjunctions, and each clause is
    attributed to the entities it names.
    """
    out: list[tuple[int, EntitySpec, str]] = []
    for idx, sent in enumerate(article.sentences):
        named = [e for e in entities if e.matches(sent)]
        if len(named) == 1:
            out.append((idx, named[0], sent))
        elif len(named) > 1:
            for clause in _CLAUSE_SPLIT.split(sent):
                clause = clause.strip()
                if not clause:
                    continue
                for e in named:
                    if e.matches(clause):
                        out.append((idx, e, clause))
    return out


@dataclass(frozen=True)
class MentionRecord:
    """One scored entity mention."""

    article_id: str
    date: date
    entity: str
    sentence: str
    sentiment: str


def load_labels(path) -> dict[tuple[str, int], str]:
    """Precomputed sentence labels: CSV article_id,sentence_index,class."""
    labels: dict[tuple[str, int], str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["article_id", "sentence_index", "class"]:
            raise ValueError(
                f"{path}: expected header article_id,sentence_index,class, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields")
            try:
                idx = int(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad sentence index") from exc
            if idx < 0:
                raise ValueError(f"{path}:{lineno}: negative sentence index")
            if row[2] not in SENTIMENT_CLASSES:
                raise ValueError(f"{path}:{lineno}: unknown class {row[2]!r}")
            key = (row[0], idx)
            if key in labels:
                raise ValueError(f"{path}:{lineno}: duplicate label for {key}")
            labels[key] = row[2]
    return labels


def mention_records(
    articles: list[Article],
    entities: tuple[EntitySpec, ...],
    lexicon: Lexicon,
    labels: dict[tuple[str, int], str] | None = None,
) -> list[MentionRecord]:
    """Extract and score every mention, in article order.

    When ``labels`` is given, a sentence with a precomputed label uses it
    for all mentions in that sentence; unlabeled sentences fall back to
    the rule scorer.
    """
    records: list[MentionRecord] = []
    missing = 0
    for art in articles:
        for idx, entity, clause in extract_mentions(art, entities):
            cls = None
            if labels is not None:
                cls = labels.get((art.id, idx))
                if cls is None:
                    missing += 1
            if cls is None:
                cls = score_sentence(clause, lexicon)
            records.append(
                MentionRecord(
                    article_id=art.id,
                    date=art.date,
                    entity=entity.label,
                    sentence=clause,
                    sentiment=cls,
                )
            )
    if labels is not None and missing:
        log.warning("%d mentions had no precomputed label; rule scorer used", missing)
    return records


# --- bias statistics ------------------------------------------------------

@dataclass(frozen=True)
class SentimentTally:
    """Mention counts by entity and polarity (very_* folded into pos/neg)."""

    label_a: str
    label_b: str
    pos_a: int = 0
    neg_a: int = 0
    neu_a: int = 0
    pos_b: int = 0
    neg_b: int = 0
    neu_b: int = 0

    @property
    def total(self) -> int:
        return (
            self.pos_a + self.neg_a + self.neu_a
            + self.pos_b + self.neg_b + self.neu_b
        )


@dataclass(frozen=True)
class SbStatistic:
    """Sentiment bias value with the tally it came from."""

    value: float
    tally: SentimentTally


def tally_mentions(
    mentions: list[MentionRecord], label_a: str, label_b: str
) -> SentimentTally:
    counts = {
        (label_a, "pos"): 0, (label_a, "neg"): 0, (label_a, "neu"): 0,
        (label_b, "pos"): 0, (label_b, "neg"): 0, (label_b, "neu"): 0,
    }
    for m in mentions:
        if m.entity not in (label_a, label_b):
            raise ValueError(f"mention entity {m.entity!r} is neither {label_a!r} nor {label_b!r}")
        if m.sentiment in _POSITIVE:
            pol = "pos"
        elif m.sentiment in _NEGATIVE:
            pol = "neg"
        elif m.sentiment == "neutral":
            pol = "neu"
        else:
            raise ValueError(f"unknown sentiment class {m.sentiment!r}")
        counts[(m.entity, pol)] += 1
    return SentimentTally(
        label_a=label_a,
        label_b=label_b,
        pos_a=counts[(label_a, "pos")],
        neg_a=counts[(label_a, "neg")],
        neu_a=counts[(label_a, "neu")],
        pos_b=counts[(label_b, "pos")],
        neg_b=counts[(label_b, "neg")],
        neu_b=counts[(label_b, "neu")],
    )


def sentiment_bias(tally: SentimentTally) -> SbStatistic:
    """Bias of coverage toward A over B, in [-1, 1].

    (positive_A - negative_A - positive_B + negative_B) / total mentions,
    the total including neutral mentions of both entities.
    """
    total = tally.total
    if total == 0:
        raise ValueError("cannot compute sentiment bias of an empty tally")
    numer = tally.pos_a - tally.neg_a - tally.pos_b + tally.neg_b
    return SbStatistic(value=numer / total, tally=tally)


def mention_value(entity: str, sentiment: str, label_a: str, label_b: str) -> int:
    """Per-mention contribution to the bias numerator: +1, -1, or 0."""
    if entity == label_a:
        sign = 1
    elif entity == label_b:
        sign = -1
    else:
        raise ValueError(f"entity {entity!r} is neither {label_a!r} nor {label_b!r}")
    if sentiment in _POSITIVE:
        return sign
    if sentiment in _NEGATIVE:
        return -sign
    if sentiment == "neutral":
        return 0
    raise ValueError(f"unknown sentiment class {sentiment!r}")


def sb_series(
    mentions: list[MentionRecord],
    label_a: str,
    label_b: str,
    window_days: int = 7,
) -> DatedSeries:
    """Daily sentiment bias over a trailing window-pooled tally.

    Day d pools all mentions dated in (d - window_days, d] into one tally.
    Days whose window is empty carry the previous value forward; the
    series starts at the first day with a non-empty window.
    """
    if not mentions:
        raise ValueError("no mentions")
    pairs = ((m.date, mention_value(m.entity, m.sentiment, label_a, label_b)) for m in mentions)
    return pooled_window_mean(pairs, window_days, "sentiment_bias")


def per_topic_sb(
    mentions: list[MentionRecord],
    factors,
    label_a: str,
    label_b: str,
    membership_threshold: float = 0.34,
    min_mentions: int = 30,
) -> list[SbStatistic | None]:
    """Sentiment bias restricted to each topic's member articles.

    A mention counts toward topic i when its article's share of loading
    on i (H[j, i] / sum_k H[j, k]) is at least ``membership_threshold``.
    Topics with fewer than ``min_mentions`` member mentions are reported
    as None.  Mentions from articles absent from the factorization are
    ignored.
    """
    if not 0.0 < membership_threshold <= 1.0:
        raise ValueError(f"membership_threshold must be in (0, 1], got {membership_threshold}")
    row_of = {doc_id: j for j, doc_id in enumerate(factors.doc_ids)}
    shares = np.zeros_like(factors.H)
    row_sums = factors.H.sum(axis=1)
    nonzero = row_sums > 0
    shares[nonzero] = factors.H[nonzero] / row_sums[nonzero, None]

    per_topic: list[list[MentionRecord]] = [[] for _ in range(factors.n_topics)]
    for m in mentions:
        j = row_of.get(m.article_id)
        if j is None:
            continue
        for i in range(factors.n_topics):
            if shares[j, i] >= membership_threshold:
                per_topic[i].append(m)
    out: list[SbStatistic | None] = []
    for i in range(factors.n_topics):
        if len(per_topic[i]) < min_mentions:
            out.append(None)
        else:
            out.append(sentiment_bias(tally_mentions(per_topic[i], label_a, label_b)))
    return out
