"""Corpus and poll ingestion, and the text rules: ``tokenize`` and ``Article.sentences``.

Articles arrive as line-delimited JSON (one object per line with keys
id, outlet, date, title, body); polls as a CSV with columns
date, pollster, pct_a, pct_b.  ``named_entities`` is the one rule for
which tracked entities a text names: NFC-normalize, then search each
entity's pattern.  Ingest filtering uses it, and so does
``sentiment.mention_records``, which applies the same patterns to each
of ``Article.sentences`` (normalized text) and to its clauses.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date

from .series import DatedSeries, pooled_window_mean

__all__ = [
    "tokenize",
    "split_sentences",
    "Article",
    "EntitySpec",
    "PollRecord",
    "load_articles",
    "load_polls",
    "daily_spread",
    "named_entities",
]

_ARTICLE_KEYS = {"id", "outlet", "date", "title", "body"}

# Runs of two or more word characters that are neither decimal digits nor
# underscore: letters, plus numerics that are not decimal digits, such as
# "²" or "½".  Each match is a whole run, so a single character is skipped.
_TOKEN_RE = re.compile(r"[^\W\d_]{2,}")
# The same runs on ASCII text, where the only such characters are letters.
_ASCII_TOKEN_RE = re.compile(r"[a-z]{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens of length >= 2, in input order.

    Text is NFC-normalized first.  A token is a run of word characters
    other than decimal digits and underscore, so digits and punctuation
    split tokens ("e-mail server 2016" yields ["mail", "server"]) while
    other numerics stay in them ("x²y ab½c" yields ["x²y", "ab½c"]).
    When the normalized, lowercased text is all ASCII, the runs are
    found with ``[a-z]{2,}``, which matches the same tokens faster.
    """
    return _lowered_tokens(unicodedata.normalize("NFC", text).lower())


def _lowered_tokens(lowered: str) -> list[str]:
    """``tokenize`` of text already NFC-normalized and lowercased."""
    if lowered.isascii():
        return _ASCII_TOKEN_RE.findall(lowered)
    return _TOKEN_RE.findall(lowered)


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

# A run of terminators followed by whitespace; group 1 is the first
# character after that whitespace.  ``\s`` is exactly ``str.isspace``.
_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s+(\S))")


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
    out = []
    start = 0
    for m in _SENTENCE_END_RE.finditer(text):
        if not m[1].isupper():
            continue
        if "." in m[0]:
            word = _word_before(text, m.start())
            if word and (word.lower() in _ABBREVIATIONS or len(word) == 1):
                continue
        end = m.end()
        piece = text[start:end].strip()
        if piece:
            out.append(piece)
        start = end
    piece = text[start:].strip()
    if piece:
        out.append(piece)
    return out


@dataclass(frozen=True, slots=True)
class Article:
    """One news article; ``date`` is publication day, ``body`` is plain text."""

    id: str
    outlet: str
    date: date
    title: str
    body: str

    @property
    def sentences(self) -> list[str]:
        """Title (when non-blank) as sentence 0, then the body's; not kept, to save memory.

        Title and body are NFC-normalized before the split, so an article's
        sentence indices do not depend on how its text was encoded.
        """
        title = unicodedata.normalize("NFC", self.title).strip()
        return ([title] if title else []) + split_sentences(unicodedata.normalize("NFC", self.body))


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
        if not self.label.strip():
            raise ValueError(f"entity label {self.label!r} is blank")
        if any(not a.strip() for a in self.aliases):
            raise ValueError(f"entity {self.label!r} has a blank alias")
        # Each alias comes first and then looks behind its own length for a
        # word character before the match start, so ``re`` can skip ahead to
        # an alias's first letter.  A case-insensitive match is one character
        # per pattern character, so the lookbehind tests the same character
        # as a leading ``(?<!\w)`` would, and every match span is the same.
        nfc = [unicodedata.normalize("NFC", a) for a in self.aliases]
        parts = "|".join(rf"{re.escape(a)}(?<!\w(?s:.){{{len(a)}}})" for a in nfc)
        object.__setattr__(
            self, "_pattern", re.compile(rf"(?:{parts})(?!\w)", re.IGNORECASE)
        )

    def matches(self, text: str) -> bool:
        """Case-insensitive alias match on word boundaries, NFC-normalized."""
        return any(named_entities(text, (self,)))


def named_entities(text: str, entities: tuple[EntitySpec, ...]) -> Iterator[EntitySpec]:
    """The entities ``text`` names, in ``entities`` order, found lazily.

    The text is NFC-normalized once, on the call; each entity then
    matches when any of its aliases occurs case-insensitively on word
    boundaries.  Lazy, so ``any(...)`` stops at the first entity named.
    """
    normalized = unicodedata.normalize("NFC", text)
    return (e for e in entities if e._pattern.search(normalized))


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
    with open(path, encoding="utf-8-sig") as fh:
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
            if any(named_entities(art.title + "\n" + art.body, entities)):
                kept.append(art)
    if not kept:
        raise ValueError(f"{path}: no article mentions any tracked entity")
    return kept


def load_polls(path) -> list[PollRecord]:
    """Read the poll CSV, validate percentages, and sort by date (stable)."""
    records: list[PollRecord] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
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

