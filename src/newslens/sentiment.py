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
import unicodedata
from dataclasses import dataclass
from datetime import date

import numpy as np

from .corpus import Article, EntitySpec, named_entities, tokenize
from .series import DatedSeries, pooled_window_mean, sliding_mean
from .vectorize import load_stopwords

__all__ = [
    "SENTIMENT_CLASSES",
    "Lexicon",
    "load_lexicon",
    "default_lexicon",
    "score_sentence",
    "MentionRecord",
    "mention_records",
    "load_labels",
    "SentimentTally",
    "tally_codes",
    "tally_mentions",
    "SbStatistic",
    "sentiment_bias",
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
# Offset of each class within an entity's (pos, neg, neu) tally fields.
_CLASS_OFFSET = dict(zip(SENTIMENT_CLASSES, (1, 1, 2, 0, 0)))

_VALENCES = {-2, -1, 1, 2}


@dataclass(frozen=True)
class Lexicon:
    """Term valences plus negator/intensifier/diminisher marker sets."""

    valence: dict[str, int]
    negators: frozenset[str]
    intensifiers: frozenset[str]
    diminishers: frozenset[str]


def load_lexicon(valence_path, negators_path, intensifiers_path, diminishers_path) -> Lexicon:
    """Valence file is TSV ``term<TAB>valence`` with valence in {-2,-1,1,2}.

    The marker files list one term per line.  Every term is NFC-normalized
    and lowercased, as ``tokenize`` makes the tokens it is matched against.
    """
    valence: dict[str, int] = {}
    with open(valence_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{valence_path}:{lineno}: expected term<TAB>valence")
            term = unicodedata.normalize("NFC", parts[0].strip()).lower()
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
        negators=load_stopwords(negators_path),
        intensifiers=load_stopwords(intensifiers_path),
        diminishers=load_stopwords(diminishers_path),
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
    are smoothed with a trailing ``window_days`` mean.  A sentence naming
    one entity is one mention; a sentence naming several is split into
    clauses at commas, semicolons and coordinating conjunctions, each
    clause a mention of every entity it names.  Mentions come in article
    order.  When ``labels`` is given, a sentence with a precomputed label
    uses it for all its mentions; unlabeled sentences fall back to the
    rule scorer.
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

# Each SentimentTally field's contribution to the bias numerator, in field
# order: a positive mention of A or a negative mention of B counts +1, a
# negative mention of A or a positive mention of B -1, a neutral one 0.
FIELD_SIGNS = (1, -1, 0, -1, 1, 0)


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

    @classmethod
    def from_codes(cls, label_a: str, label_b: str, codes: np.ndarray) -> SentimentTally:
        """The tally of mentions coded by ``tally_codes``."""
        return cls(label_a, label_b, *np.bincount(codes, minlength=6).tolist())

    @property
    def counts(self) -> tuple[int, ...]:
        """The six counts in field order, the order of ``tally_codes``."""
        return (self.pos_a, self.neg_a, self.neu_a, self.pos_b, self.neg_b, self.neu_b)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def value_counts(self) -> tuple[int, int, int]:
        """Mentions valued +1, 0 and -1 in the bias numerator."""
        return tuple(
            sum(n for n, sign in zip(self.counts, FIELD_SIGNS) if sign == value)
            for value in (1, 0, -1)
        )


@dataclass(frozen=True)
class SbStatistic:
    """Sentiment bias value with the tally it came from."""

    value: float
    tally: SentimentTally


def tally_codes(mentions: list[MentionRecord], label_a: str, label_b: str) -> np.ndarray:
    """Each mention's SentimentTally field index, 0-5 in the order pos_a,
    neg_a, neu_a, pos_b, neg_b, neu_b.

    The one place a mention is classified.  A mention whose entity is
    neither label, or whose class is unknown, raises ValueError.
    """
    code = {
        (label, cls): base + offset
        for label, base in ((label_b, 3), (label_a, 0))
        for cls, offset in _CLASS_OFFSET.items()
    }
    try:
        return np.fromiter(
            (code[m.entity, m.sentiment] for m in mentions), dtype=np.int8, count=len(mentions)
        )
    except KeyError as exc:
        entity, cls = exc.args[0]
        if entity not in (label_a, label_b):
            raise ValueError(
                f"mention entity {entity!r} is neither {label_a!r} nor {label_b!r}"
            ) from None
        raise ValueError(f"unknown sentiment class {cls!r}") from None


def tally_mentions(
    mentions: list[MentionRecord], label_a: str, label_b: str
) -> SentimentTally:
    return SentimentTally.from_codes(label_a, label_b, tally_codes(mentions, label_a, label_b))


def sentiment_bias(tally: SentimentTally) -> SbStatistic:
    """Bias of coverage toward A over B, in [-1, 1].

    (positive_A - negative_A - positive_B + negative_B) / total mentions,
    the total including neutral mentions of both entities.
    """
    total = tally.total
    if total == 0:
        raise ValueError("cannot compute sentiment bias of an empty tally")
    plus, _, minus = tally.value_counts
    return SbStatistic(value=(plus - minus) / total, tally=tally)


def sb_series(
    mentions: list[MentionRecord],
    codes: np.ndarray,
    window_days: int = 7,
) -> DatedSeries:
    """Daily sentiment bias over a trailing window-pooled tally.

    ``codes`` are the mentions' ``tally_codes``.  Day d pools all mentions
    dated in (d - window_days, d] into one tally.  Days whose window is
    empty carry the previous value forward; the series starts at the
    first day with a non-empty window.
    """
    if not mentions:
        raise ValueError("no mentions")
    pairs = zip((m.date for m in mentions), (FIELD_SIGNS[c] for c in codes), strict=True)
    return pooled_window_mean(pairs, window_days, "sentiment_bias")


def per_topic_sb(
    mentions: list[MentionRecord],
    codes: np.ndarray,
    factors,
    label_a: str,
    label_b: str,
    membership_threshold: float = 0.34,
    min_mentions: int = 30,
) -> list[SbStatistic | None]:
    """Sentiment bias restricted to each topic's member articles.

    ``codes`` are the mentions' ``tally_codes``.  A mention counts toward
    topic i when its article's share of loading on i (H[j, i] /
    sum_k H[j, k]) is at least ``membership_threshold``.  Topics with
    fewer than ``min_mentions`` member mentions are reported as None.
    Mentions from articles absent from the factorization are ignored.
    The coded mentions are counted per article, and the articles' counts
    are summed into every topic they belong to.
    """
    if not 0.0 < membership_threshold <= 1.0:
        raise ValueError(f"membership_threshold must be in (0, 1], got {membership_threshold}")
    if min_mentions < 1:
        raise ValueError(f"min_mentions must be >= 1, got {min_mentions}")
    if len(codes) != len(mentions):
        raise ValueError(f"{len(codes)} codes for {len(mentions)} mentions")
    row_of = {doc_id: j for j, doc_id in enumerate(factors.doc_ids)}
    shares = np.zeros_like(factors.H)
    row_sums = factors.H.sum(axis=1)
    nonzero = row_sums > 0
    shares[nonzero] = factors.H[nonzero] / row_sums[nonzero, None]
    member = shares >= membership_threshold

    rows = np.fromiter(
        (row_of.get(m.article_id, -1) for m in mentions), dtype=np.intp, count=len(mentions)
    )
    known = rows >= 0
    n_docs = factors.H.shape[0]
    per_doc = np.bincount(rows[known] * 6 + codes[known], minlength=n_docs * 6).reshape(n_docs, 6)
    return [
        None if sum(counts) < min_mentions
        else sentiment_bias(SentimentTally(label_a, label_b, *counts))
        for counts in (member.T.astype(np.int64) @ per_doc).tolist()
    ]
