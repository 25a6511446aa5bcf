"""Entity mention extraction and sentiment-bias scoring.

``mention_records`` is the one mention reader: it reads each article's
sentences once and, from the entities each sentence names, builds both
the smoothed daily mention-count series and the scored mentions.

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
from datetime import date

import numpy as np

from .corpus import Article, EntitySpec, named_entities, tokenize
from .series import DatedSeries, pooled_window_mean, sliding_mean

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

SENTIMENT_CLASSES = (
    "very_negative",
    "negative",
    "neutral",
    "positive",
    "very_positive",
)
_POLARITY = dict(zip(SENTIMENT_CLASSES, (-1, -1, 0, 1, 1)))

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


def _attribute(sent: str, named: tuple[EntitySpec, ...]) -> list[tuple[EntitySpec, str]]:
    """(entity, clause) mentions of one sentence that names ``named``."""
    if len(named) < 2:
        return [(e, sent) for e in named]
    return [
        (e, clause)
        for clause in map(str.strip, _CLAUSE_SPLIT.split(sent))
        if clause
        for e in named_entities(clause, named)
    ]


def extract_mentions(
    article: Article, entities: tuple[EntitySpec, ...]
) -> list[tuple[int, EntitySpec, str]]:
    """(sentence index, entity, clause) triples for every entity mention.

    A sentence naming exactly one entity yields one mention carrying the
    whole sentence.  A sentence naming several is split into clauses at
    commas, semicolons, and coordinating conjunctions, and each clause is
    attributed to the entities it names.
    """
    return [
        (idx, entity, clause)
        for idx, sent in enumerate(article.sentences)
        for entity, clause in _attribute(sent, tuple(named_entities(sent, entities)))
    ]


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
    window_days: int = 7,
) -> tuple[dict[str, DatedSeries], list[MentionRecord]]:
    """Mention-count series by entity label, and every mention scored.

    Each article's sentences are read once and each sentence's entities
    found once.  A sentence counts toward every entity it names, on its
    article's day (days without articles count zero); the daily counts
    are smoothed with a trailing ``window_days`` mean.  The mentions are
    those of ``extract_mentions``, in article order.  When ``labels`` is
    given, a sentence with a precomputed label uses it for all its
    mentions; unlabeled sentences fall back to the rule scorer.
    """
    if not articles:
        raise ValueError("no articles")
    first = min(a.date for a in articles)
    n_days = (max(a.date for a in articles) - first).days + 1
    counts = {e.label: np.zeros(n_days) for e in entities}
    records: list[MentionRecord] = []
    missing = 0
    for art in articles:
        day = (art.date - first).days
        for idx, sent in enumerate(art.sentences):
            named = tuple(named_entities(sent, entities))
            for e in named:
                counts[e.label][day] += 1
            given = None if labels is None else labels.get((art.id, idx))
            for entity, clause in _attribute(sent, named):
                missing += given is None
                records.append(
                    MentionRecord(
                        article_id=art.id,
                        date=art.date,
                        entity=entity.label,
                        sentence=clause,
                        sentiment=given or score_sentence(clause, lexicon),
                    )
                )
    if labels is not None and missing:
        log.warning("%d mentions had no precomputed label; rule scorer used", missing)
    series = {
        label: sliding_mean(DatedSeries(first, raw, label=f"mentions_{label}"), window_days)
        for label, raw in counts.items()
    }
    return series, records


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


def _polarity(sentiment: str) -> int:
    """+1 for a positive class, -1 for a negative one, 0 for neutral."""
    pol = _POLARITY.get(sentiment)
    if pol is None:
        raise ValueError(f"unknown sentiment class {sentiment!r}")
    return pol


# Offset of each polarity within an entity's (pos, neg, neu) fields.
_TALLY_OFFSET = {1: 0, -1: 1, 0: 2}


def _tally_field(m: MentionRecord, label_a: str, label_b: str) -> int:
    """Position of a mention among the SentimentTally counts:
    pos_a, neg_a, neu_a, pos_b, neg_b, neu_b."""
    if m.entity == label_a:
        base = 0
    elif m.entity == label_b:
        base = 3
    else:
        raise ValueError(f"mention entity {m.entity!r} is neither {label_a!r} nor {label_b!r}")
    return base + _TALLY_OFFSET[_polarity(m.sentiment)]


def tally_mentions(
    mentions: list[MentionRecord], label_a: str, label_b: str
) -> SentimentTally:
    counts = [0] * 6
    for m in mentions:
        counts[_tally_field(m, label_a, label_b)] += 1
    return SentimentTally(label_a, label_b, *counts)


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
    return sign * _polarity(sentiment)


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
    ignored; every other mention must name one of the two labels with a
    known sentiment class, or ValueError is raised.  Each mention is
    classified once, counted per article, and the articles' counts are
    summed into every topic they belong to.
    """
    if not 0.0 < membership_threshold <= 1.0:
        raise ValueError(f"membership_threshold must be in (0, 1], got {membership_threshold}")
    row_of = {doc_id: j for j, doc_id in enumerate(factors.doc_ids)}
    shares = np.zeros_like(factors.H)
    row_sums = factors.H.sum(axis=1)
    nonzero = row_sums > 0
    shares[nonzero] = factors.H[nonzero] / row_sums[nonzero, None]
    member = shares >= membership_threshold

    cells = np.fromiter(
        (
            row_of[m.article_id] * 6 + _tally_field(m, label_a, label_b)
            for m in mentions
            if m.article_id in row_of
        ),
        dtype=np.intp,
    )
    n_docs = factors.H.shape[0]
    per_doc = np.bincount(cells, minlength=n_docs * 6).reshape(n_docs, 6)
    out: list[SbStatistic | None] = []
    for counts in (member.T.astype(np.int64) @ per_doc).tolist():
        if sum(counts) < min_mentions:
            out.append(None)
        else:
            out.append(sentiment_bias(SentimentTally(label_a, label_b, *counts)))
    return out
