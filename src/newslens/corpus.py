"""Corpus and poll ingestion.

Articles arrive as line-delimited JSON (one object per line with keys
id, outlet, date, title, body); polls as a CSV with columns
date, pollster, pct_a, pct_b.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .series import DatedSeries, pooled_window_mean, sliding_mean

__all__ = [
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


@dataclass(frozen=True)
class Article:
    """One news article; ``date`` is publication day, ``body`` is plain text."""

    id: str
    outlet: str
    date: date
    title: str
    body: str


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
    entity: EntitySpec,
    window_days: int = 7,
) -> DatedSeries:
    """Smoothed daily count of sentences that name the entity.

    The title counts as one sentence; body sentences come from the
    sentence splitter.  Days without articles contribute zero.  The raw
    counts are smoothed with a trailing ``window_days`` mean.
    """
    from .sentiment import article_sentences

    if not articles:
        raise ValueError("no articles")
    first = min(a.date for a in articles)
    last = max(a.date for a in articles)
    n = (last - first).days + 1
    raw = np.zeros(n)
    for art in articles:
        hits = sum(1 for s in article_sentences(art) if entity.matches(s))
        raw[(art.date - first).days] += hits
    series = DatedSeries(first, raw, label=f"mentions_{entity.label}")
    return sliding_mean(series, window_days)
