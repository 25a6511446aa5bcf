"""Run configuration: a YAML or JSON file plus command-line overrides."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .corpus import EntitySpec
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
    """Everything a pipeline run needs, with resolved paths."""

    articles: dict[str, Path]
    polls: Path
    entities: tuple[EntitySpec, EntitySpec]
    seed: int
    out_dir: Path
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
    negators: Path | None = None
    intensifiers: Path | None = None
    diminishers: Path | None = None
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
        shared = {al.lower() for al in a.aliases} & {al.lower() for al in b.aliases}
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
            "window_days": 1, "max_lag": 0, "min_df": 1, "keywords_per_topic": 1,
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
        lex_parts = [self.lexicon, self.negators, self.intensifiers, self.diminishers]
        if any(p is not None for p in lex_parts) and not all(p is not None for p in lex_parts):
            raise ValueError(
                "config: a custom lexicon needs all four files "
                "(lexicon, negators, intensifiers, diminishers)"
            )


# PipelineConfig fields read from a config-file section (None: the top
# level) and key; fields absent from the file keep their defaults.
_SETTINGS = {
    "seed": (None, "seed", int),
    "n_topics": ("topics", "count", int),
    "drop_topics": ("topics", "drop", lambda v: tuple(int(i) for i in v or [])),
    "normalization": ("topics", "normalization", str),
    "min_df": ("topics", "min_df", int),
    "keywords_per_topic": ("topics", "keywords", int),
    "window_days": (None, "window_days", int),
    "max_lag": ("analysis", "max_lag", int),
    "n_perm": ("analysis", "permutations", int),
    "bootstrap_b": ("bootstrap", "samples", int),
    "bootstrap_gamma": ("bootstrap", "level", float),
    "membership_threshold": ("sentiment", "membership_threshold", float),
    "min_topic_mentions": ("sentiment", "min_topic_mentions", int),
}


def _file_key(field: str) -> str:
    section, key, _ = _SETTINGS[field]
    return key if section is None else f"{section}.{key}"


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where}: missing required key {key!r}")
    return mapping[key]


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a YAML or JSON config file; relative paths resolve against it.

    ``overrides`` (from CLI flags) map PipelineConfig field names to
    values that replace the file's; keys with value None are ignored.
    They are checked with the file's values, and an error in one names
    the field.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text) if path.suffix.lower() == ".json" else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    base = path.parent

    def resolve(p) -> Path:
        p = Path(str(p))
        return p if p.is_absolute() else base / p

    articles_raw = _require(raw, "articles", str(path))
    if not isinstance(articles_raw, dict) or not articles_raw:
        raise ValueError(f"{path}: 'articles' must map outlet names to file paths")
    articles = {str(k): resolve(v) for k, v in articles_raw.items()}

    entities_raw = _require(raw, "entities", str(path))
    if not isinstance(entities_raw, list) or len(entities_raw) != 2:
        raise ValueError(f"{path}: 'entities' must list exactly two entries")
    entities = []
    for ent in entities_raw:
        if not isinstance(ent, dict) or "label" not in ent or "aliases" not in ent:
            raise ValueError(f"{path}: each entity needs 'label' and 'aliases'")
        aliases = [ent["aliases"]] if isinstance(ent["aliases"], str) else ent["aliases"]
        if not isinstance(aliases, list):
            raise ValueError(f"{path}: entity 'aliases' must be a string or a list")
        try:
            entities.append(EntitySpec(str(ent["label"]), tuple(str(a) for a in aliases)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def section(key: str) -> dict:
        value = raw.get(key)
        if value is not None and not isinstance(value, dict):
            raise ValueError(f"{path}: {key!r} must be a mapping, got {type(value).__name__}")
        return value or {}

    sections = {key: section(key) for key in ("topics", "analysis", "bootstrap", "sentiment")}
    sections[None] = raw
    senti = sections["sentiment"]

    def opt_path(section: dict, key: str) -> Path | None:
        v = section.get(key)
        return resolve(v) if v is not None else None

    polls = resolve(_require(raw, "polls", str(path)))
    _require(raw, "seed", str(path))
    settings = {}
    for field, (name, key, cast) in _SETTINGS.items():
        if key in sections[name]:
            try:
                settings[field] = cast(sections[name][key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad value for {_file_key(field)}: {exc}") from exc
    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        cfg = PipelineConfig(**{
            "articles": articles,
            "polls": polls,
            "entities": tuple(entities),
            "out_dir": resolve(raw.get("output", "out")),
            "stopwords": opt_path(raw, "stopwords"),
            "lexicon": opt_path(senti, "lexicon"),
            "negators": opt_path(senti, "negators"),
            "intensifiers": opt_path(senti, "intensifiers"),
            "diminishers": opt_path(senti, "diminishers"),
            "labels": opt_path(senti, "labels"),
            **settings,
            **overridden,
        })
    except _RangeError as exc:
        name = exc.field if exc.field in overridden else _file_key(exc.field)
        raise ValueError(f"{path}: {name} {exc.problem}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {str(exc).removeprefix('config: ')}") from None

    missing = [
        str(p)
        for p in [cfg.polls, *cfg.articles.values(), cfg.stopwords, cfg.lexicon,
                  cfg.negators, cfg.intensifiers, cfg.diminishers, cfg.labels]
        if p is not None and not Path(p).is_file()
    ]
    if missing:
        raise ValueError(f"{path}: referenced files not found: {', '.join(missing)}")
    return cfg
