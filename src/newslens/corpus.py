"""Corpus and poll ingestion, and the text rules behind ``Article.tokens`` and ``.sentences``.

Articles arrive as line-delimited JSON (one object per line with keys
id, outlet, date, title, body); polls as a CSV with columns
date, pollster, pct_a, pct_b.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import sys
import unicodedata
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property

import numpy as np

from .series import DatedSeries, pooled_window_mean, sliding_mean

__all__ = [
    "tokenize",
    "split_sentences",
    "Article",
    "EntitySpec",
    "PollRecord",
    "load_articles",
    "load_polls",
    "daily_spread",
    "mention_counts",
]

log = logging.getLogger(__name__)

_DAY = timedelta(days=1)
_ARTICLE_KEYS = {"id", "outlet", "date", "title", "body"}

# Unicode-aware alphabetic runs: letters only, no digits or underscore.
_TOKEN_RE = re.compile(r"[^\W\d_]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphabetic tokens of length >= 2, in input order.

    Text is NFC-normalized first; digits and punctuation split tokens,
    so "e-mail server 2016" yields ["mail", "server"].
    """
    normalized = unicodedata.normalize("NFC", text).lower()
    return [t for t in _TOKEN_RE.findall(normalized) if len(t) >= 2]


_ABBREVIATIONS = frozenset(
    """
    mr mrs ms dr prof rev fr sen rep gov pres gen lt col sgt maj capt cmdr adm
    st ave blvd rd jr sr inc corp ltd co llc dept univ assn bros
    vs etc al eg ie cf ca approx est
    jan feb mar apr jun jul aug sep sept oct nov dec
    mon tue tues wed thu thurs fri sat sun
    no fig eq vol pp op cit
    """.split()
)

_TERMINATOR_RE = re.compile(r"[.!?]+")


def _word_before(text: str, pos: int) -> str:
    i = pos
    while i > 0 and text[i - 1].isalpha():
        i -= 1
    return text[i:pos]


def split_sentences(text: str) -> list[str]:
    """Split on ., !, ? followed by whitespace and an uppercase letter.

    A period after a known abbreviation (Mr., Dr., vs., ...) or after a
    single letter (initials) does not end a sentence.  Sentences are
    slices of the input, stripped, so joining them reproduces the input
    up to whitespace.
    """
    n = len(text)
    bounds: list[int] = []
    for m in _TERMINATOR_RE.finditer(text):
        j = m.end()
        if j >= n or not text[j].isspace():
            continue
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k >= n or not text[k].isupper():
            continue
        if "." in m.group():
            word = _word_before(text, m.start())
            if word and (word.lower() in _ABBREVIATIONS or len(word) == 1):
                continue
        bounds.append(j)
    out = []
    start = 0
    for b in bounds + [n]:
        piece = text[start:b].strip()
        if piece:
            out.append(piece)
        start = b
    return out


@dataclass(frozen=True)
class Article:
    """One news article; ``date`` is publication day, ``body`` is plain text."""

    id: str
    outlet: str
    date: date
    title: str
    body: str

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """``tokenize(title + "\\n" + body)``, kept after first use; interned to share strings."""
        return tuple(sys.intern(t) for t in tokenize(self.title + "\n" + self.body))

    @property
    def sentences(self) -> list[str]:
        """Title (when non-blank) as sentence 0, then the body's; not kept, to save memory."""
        title = self.title.strip()
        return ([title] if title else []) + split_sentences(self.body)


@dataclass(frozen=True)
class EntitySpec:
    """A tracked entity: a report label plus the aliases that denote it."""

    label: str
    aliases: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("entity label must be non-empty")
        if not self.aliases:
            raise ValueError(f"entity {self.label!r} needs at least one alias")
        object.__setattr__(self, "aliases", tuple(self.aliases))
        parts = "|".join(
            re.escape(unicodedata.normalize("NFC", a)) for a in self.aliases
        )
        object.__setattr__(
            self,
            "_pattern",
            re.compile(rf"(?<!\w)(?:{parts})(?!\w)", re.IGNORECASE),
        )

    def matches(self, text: str) -> bool:
        """Case-insensitive alias match on word boundaries, NFC-normalized."""
        return bool(self._pattern.search(unicodedata.normalize("NFC", text)))


@dataclass(frozen=True)
class PollRecord:
    date: date
    pollster: str
    pct_a: float
    pct_b: float

    @property
    def spread(self) -> float:
        return self.pct_a - self.pct_b


def _parse_date(raw: str, where: str) -> date:
    try:
        return date.fromisoformat(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad ISO date {raw!r}") from exc


def load_articles(path, entities: tuple[EntitySpec, ...]) -> list[Article]:
    """Read line-delimited JSON articles, keeping those that name an entity.

    An article survives when its title or body matches at least one alias
    of at least one entity.  Malformed lines, duplicate ids, and an empty
    surviving set all raise ValueError.  Input order is preserved.
    """
    kept: list[Article] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or set(obj) != _ARTICLE_KEYS:
                raise ValueError(
                    f"{where}: expected keys {sorted(_ARTICLE_KEYS)}, "
                    f"got {sorted(obj) if isinstance(obj, dict) else type(obj).__name__}"
                )
            for key in ("id", "outlet", "title", "body"):
                if not isinstance(obj[key], str):
                    raise ValueError(f"{where}: field {key!r} must be a string")
            if not obj["body"]:
                raise ValueError(f"{where}: empty body")
            art = Article(
                id=obj["id"],
                outlet=obj["outlet"],
                date=_parse_date(obj["date"], where),
                title=obj["title"],
                body=obj["body"],
            )
            if art.id in seen:
                raise ValueError(f"{where}: duplicate article id {art.id!r}")
            seen.add(art.id)
            text = art.title + "\n" + art.body
            if any(e.matches(text) for e in entities):
                kept.append(art)
    if not kept:
        raise ValueError(f"{path}: no article mentions any tracked entity")
    return kept


def load_polls(path) -> list[PollRecord]:
    """Read the poll CSV, validate percentages, and sort by date (stable)."""
    records: list[PollRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "pollster", "pct_a", "pct_b"]:
            raise ValueError(f"{path}: expected header date,pollster,pct_a,pct_b, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != 4:
                raise ValueError(f"{where}: expected 4 fields, got {len(row)}")
            day = _parse_date(row[0], where)
            try:
                pct_a, pct_b = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric percentage") from exc
            for name, val in (("pct_a", pct_a), ("pct_b", pct_b)):
                if not 0.0 <= val <= 100.0:
                    raise ValueError(f"{where}: {name}={val} outside [0, 100]")
            if pct_a + pct_b > 100.0:
                raise ValueError(f"{where}: pct_a + pct_b = {pct_a + pct_b} exceeds 100")
            records.append(PollRecord(day, row[1], pct_a, pct_b))
    if not records:
        raise ValueError(f"{path}: no poll records")
    records.sort(key=lambda r: r.date)
    return records


def daily_spread(polls: list[PollRecord], window_days: int = 7) -> DatedSeries:
    """Daily support spread, averaged over a trailing window.

    Day d averages pct_a - pct_b over every poll dated in
    (d - window_days, d].  Days whose window holds no poll carry the
    previous day's value forward; the series starts at the first day
    whose window is non-empty (the earliest poll date).
    """
    if not polls:
        raise ValueError("no poll records")
    return pooled_window_mean(((r.date, r.spread) for r in polls), window_days, "poll_spread")


def mention_counts(
    articles: list[Article],
    entities: tuple[EntitySpec, ...],
    window_days: int = 7,
) -> dict[str, DatedSeries]:
    """Smoothed daily count of sentences that name each entity, by label.

    Sentences are ``Article.sentences``, read once per article for all
    entities.  Days without articles contribute zero.  The raw counts are
    smoothed with a trailing ``window_days`` mean.
    """
    if not articles:
        raise ValueError("no articles")
    first = min(a.date for a in articles)
    last = max(a.date for a in articles)
    raw = np.zeros((len(entities), (last - first).days + 1))
    for art in articles:
        day = (art.date - first).days
        for sent in art.sentences:
            for i, entity in enumerate(entities):
                if entity.matches(sent):
                    raw[i, day] += 1
    return {
        e.label: sliding_mean(DatedSeries(first, raw[i], label=f"mentions_{e.label}"), window_days)
        for i, e in enumerate(entities)
    }
