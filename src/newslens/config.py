"""Run configuration: a YAML or JSON file plus command-line overrides."""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import MISSING, dataclass
from pathlib import Path

import yaml

from .corpus import EntitySpec
from .sentiment import LEXICON_FILES
from .topics import NORMALIZATION_MODES

__all__ = ["PipelineConfig", "load_config", "outlet_slug"]


def outlet_slug(name: str) -> str:
    """The tag an outlet's output files are named by."""
    s = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_").lower()
    return s or "outlet"


class _RangeError(ValueError):
    """A PipelineConfig field outside its range; ``field`` names it."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"config: {field} {problem}")
        self.field = field
        self.problem = problem


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs; load_config resolves its paths."""

    articles: dict[str, Path]
    polls: Path
    entities: tuple[EntitySpec, EntitySpec]
    seed: int
    out_dir: Path = Path("out")
    n_topics: int = 6
    drop_topics: tuple[int, ...] = ()
    normalization: str = "per_day_share"
    min_df: int = 2
    window_days: int = 7
    max_lag: int = 20
    n_perm: int = 10000
    bootstrap_b: int = 10000
    bootstrap_gamma: float = 0.95
    membership_threshold: float = 0.34
    min_topic_mentions: int = 30
    keywords_per_topic: int = 10
    stopwords: Path | None = None
    lexicon: Path | None = None
    labels: Path | None = None

    def __post_init__(self) -> None:
        if not self.articles:
            raise ValueError("config: at least one outlet article file required")
        by_tag: dict[str, str] = {}
        for name in self.articles:
            tag = outlet_slug(name)
            if by_tag.setdefault(tag, name) != name:
                raise ValueError(
                    f"config: outlets {by_tag[tag]!r} and {name!r} share the file tag {tag!r}"
                )
        if len(self.entities) != 2:
            raise ValueError(f"config: exactly two entities required, got {len(self.entities)}")
        a, b = self.entities
        if a.label == b.label:
            raise ValueError("config: entity labels must differ")
        # Entity patterns match NFC text, so aliases equal after NFC match the same words.
        folded = [{unicodedata.normalize("NFC", al).lower() for al in e.aliases} for e in (a, b)]
        shared = folded[0] & folded[1]
        if shared:
            raise ValueError(f"config: entities share aliases {sorted(shared)}")
        if self.n_topics < 2:
            raise _RangeError("n_topics", f"must be >= 2, got {self.n_topics}")
        if self.normalization not in NORMALIZATION_MODES:
            raise _RangeError(
                "normalization",
                f"must be one of {', '.join(NORMALIZATION_MODES)}, got {self.normalization!r}",
            )
        lows = {
            "seed": 0, "window_days": 1, "max_lag": 0, "min_df": 1, "keywords_per_topic": 1,
            "n_perm": 1, "bootstrap_b": 2, "min_topic_mentions": 1,
        }
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise _RangeError(name, f"must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.bootstrap_gamma < 1.0:
            raise _RangeError("bootstrap_gamma", f"must be in (0, 1), got {self.bootstrap_gamma}")
        if not 0.0 < self.membership_threshold <= 1.0:
            raise _RangeError(
                "membership_threshold", f"must be in (0, 1], got {self.membership_threshold}"
            )
        bad = [i for i in self.drop_topics if not 0 <= i < self.n_topics]
        if bad:
            raise _RangeError("drop_topics", f"{bad} outside [0, {self.n_topics})")
        if len(set(self.drop_topics)) == self.n_topics:
            raise ValueError(
                f"config: topics.drop (--drop-topics) drops all {self.n_topics} topics; "
                "at least one must be kept"
            )


class _EntryError(ValueError):
    """A malformed ``articles`` or ``entities`` value; the message names it."""


def _articles(value) -> dict[str, Path]:
    if not isinstance(value, dict) or not value:
        raise _EntryError("'articles' must map outlet names to file paths")
    return {str(outlet): Path(p) for outlet, p in value.items()}


def _entities(value) -> tuple[EntitySpec, ...]:
    if not isinstance(value, list) or len(value) != 2:
        raise _EntryError("'entities' must list exactly two entries")
    entities = []
    for ent in value:
        if not isinstance(ent, dict) or "label" not in ent or "aliases" not in ent:
            raise _EntryError("each entity needs 'label' and 'aliases'")
        aliases = [ent["aliases"]] if isinstance(ent["aliases"], str) else ent["aliases"]
        if not isinstance(aliases, list):
            raise _EntryError("entity 'aliases' must be a string or a list")
        if not all(isinstance(name, str) for name in [ent["label"], *aliases]):
            raise _EntryError("entity labels and aliases must be strings")
        try:
            entities.append(EntitySpec(ent["label"], tuple(aliases)))
        except ValueError as exc:
            raise _EntryError(str(exc)) from None
    return tuple(entities)


def _integer(value) -> int:
    """An integer as written; a bool, float or string is not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _integers(value) -> tuple[int, ...]:
    """A list of integers, each as ``_integer`` takes it."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(_integer(i) for i in value)


def _fraction(value) -> float:
    """A number as written; a bool or string is not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _file(value) -> Path:
    """An input file, which must exist."""
    return Path(value)


# The config file's layout: each PipelineConfig field a file can set, by
# dotted key (section.key, or key at the top level) and parse.  A Path a
# parse returns is relative to the config file.
_SCHEMA = {
    "articles": ("articles", _articles),
    "polls": ("polls", _file),
    "entities": ("entities", _entities),
    "seed": ("seed", _integer),
    "out_dir": ("output", Path),
    "window_days": ("window_days", _integer),
    "stopwords": ("stopwords", _file),
    "n_topics": ("topics.count", _integer),
    "drop_topics": ("topics.drop", _integers),
    "normalization": ("topics.normalization", str),
    "min_df": ("topics.min_df", _integer),
    "keywords_per_topic": ("topics.keywords", _integer),
    "max_lag": ("analysis.max_lag", _integer),
    "n_perm": ("analysis.permutations", _integer),
    "bootstrap_b": ("bootstrap.samples", _integer),
    "bootstrap_gamma": ("bootstrap.level", _fraction),
    "membership_threshold": ("sentiment.membership_threshold", _fraction),
    "min_topic_mentions": ("sentiment.min_topic_mentions", _integer),
    "lexicon": ("sentiment.lexicon", Path),
    "labels": ("sentiment.labels", _file),
}


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a YAML or JSON config file; relative paths resolve against it.

    The file may hold only the keys ``_SCHEMA`` lists, at the top level
    and in each section; any other key is rejected by its dotted name.  A
    null value counts as absent, and an absent key keeps the field's default.

    ``overrides`` (from CLI flags) map PipelineConfig field names to
    values that replace the file's; keys with value None are ignored.
    They are checked with the file's values, and an error in one names
    the field.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    try:
        raw = json.loads(text) if path.suffix.lower() == ".json" else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")

    sections: dict = {"": raw}
    for dotted, _ in _SCHEMA.values():
        name = dotted.rpartition(".")[0]
        if name not in sections:
            body = raw.get(name)
            if body is not None and not isinstance(body, dict):
                raise ValueError(f"{path}: {name!r} must be a mapping, got {type(body).__name__}")
            sections[name] = body or {}
    # (section, key) pairs: a dotted key at the top level names no section's key.
    listed = {dotted.rpartition(".")[::2] for dotted, _ in _SCHEMA.values()}
    listed |= {("", name) for name in sections if name}
    found = [(name, key) for name, body in sections.items() for key in body]
    unknown = [f"{s}.{k}".removeprefix(".") for s, k in found if (s, k) not in listed]
    if unknown:
        raise ValueError(f"{path}: unknown config keys {', '.join(map(repr, unknown))}")

    settings = {}
    for field, (dotted, parse) in _SCHEMA.items():
        name, _, key = dotted.rpartition(".")
        value = sections[name].get(key)
        if value is None:
            value = PipelineConfig.__dataclass_fields__[field].default
            if value is MISSING:
                raise ValueError(f"{path}: missing required key {dotted!r}")
        else:
            try:
                value = parse(value)
            except _EntryError as exc:
                raise ValueError(f"{path}: {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad value for {dotted}: {exc}") from exc
        if isinstance(value, Path):
            value = path.parent / value
        elif parse is _articles:
            value = {outlet: path.parent / p for outlet, p in value.items()}
        settings[field] = value
    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        cfg = PipelineConfig(**{**settings, **overridden})
    except _RangeError as exc:
        name = exc.field if exc.field in overridden else _SCHEMA[exc.field][0]
        raise ValueError(f"{path}: {name} {exc.problem}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {str(exc).removeprefix('config: ')}") from None

    inputs = [getattr(cfg, field) for field, (_, parse) in _SCHEMA.items() if parse is _file]
    if cfg.lexicon is not None:
        inputs += [Path(cfg.lexicon) / name for name in LEXICON_FILES]
    missing = [
        str(p) for p in [*cfg.articles.values(), *inputs] if p is not None and not Path(p).is_file()
    ]
    if missing:
        raise ValueError(f"{path}: referenced files not found: {', '.join(missing)}")
    return cfg
