"""Run configuration: a YAML or JSON file plus command-line overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .corpus import EntitySpec
from .topics import NORMALIZATION_MODES

__all__ = ["PipelineConfig", "load_config"]


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
        if len(self.entities) != 2:
            raise ValueError(f"config: exactly two entities required, got {len(self.entities)}")
        a, b = self.entities
        if a.label == b.label:
            raise ValueError("config: entity labels must differ")
        shared = {al.lower() for al in a.aliases} & {al.lower() for al in b.aliases}
        if shared:
            raise ValueError(f"config: entities share aliases {sorted(shared)}")
        if self.n_topics < 2:
            raise ValueError(f"config: n_topics must be >= 2, got {self.n_topics}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"config: unknown normalization {self.normalization!r}")
        if self.window_days < 1:
            raise ValueError(f"config: window_days must be >= 1, got {self.window_days}")
        if self.max_lag < 0:
            raise ValueError(f"config: max_lag must be >= 0, got {self.max_lag}")
        if not 0.0 < self.bootstrap_gamma < 1.0:
            raise ValueError(f"config: bootstrap level must be in (0, 1), got {self.bootstrap_gamma}")
        lows = {"min_df": 1, "keywords_per_topic": 1, "n_perm": 1, "bootstrap_b": 2}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"config: {name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.membership_threshold <= 1.0:
            raise ValueError(
                f"config: membership_threshold must be in (0, 1], got {self.membership_threshold}"
            )
        bad = [i for i in self.drop_topics if not 0 <= i < self.n_topics]
        if bad:
            raise ValueError(f"config: drop_topics {bad} outside [0, {self.n_topics})")
        lex_parts = [self.lexicon, self.negators, self.intensifiers, self.diminishers]
        if any(p is not None for p in lex_parts) and not all(p is not None for p in lex_parts):
            raise ValueError(
                "config: a custom lexicon needs all four files "
                "(lexicon, negators, intensifiers, diminishers)"
            )


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where}: missing required key {key!r}")
    return mapping[key]


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a YAML or JSON config file; relative paths resolve against it.

    ``overrides`` (from CLI flags) replace top-level settings after
    parsing; keys with value None are ignored.
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
        entities.append(EntitySpec(label=str(ent["label"]), aliases=tuple(str(a) for a in aliases)))

    def section(key: str) -> dict:
        value = raw.get(key)
        if value is not None and not isinstance(value, dict):
            raise ValueError(f"{path}: {key!r} must be a mapping, got {type(value).__name__}")
        return value or {}

    topics, analysis, boot, senti = map(section, ("topics", "analysis", "bootstrap", "sentiment"))

    def opt_path(section: dict, key: str) -> Path | None:
        v = section.get(key)
        return resolve(v) if v is not None else None

    polls = resolve(_require(raw, "polls", str(path)))
    seed = _require(raw, "seed", str(path))
    try:
        kwargs = dict(
            articles=articles,
            polls=polls,
            entities=tuple(entities),
            seed=int(seed),
            out_dir=resolve(raw.get("output", "out")),
            n_topics=int(topics.get("count", 6)),
            drop_topics=tuple(int(i) for i in topics.get("drop", []) or []),
            normalization=str(topics.get("normalization", "per_day_share")),
            min_df=int(topics.get("min_df", 2)),
            window_days=int(raw.get("window_days", 7)),
            max_lag=int(analysis.get("max_lag", 20)),
            n_perm=int(analysis.get("permutations", 10000)),
            bootstrap_b=int(boot.get("samples", 10000)),
            bootstrap_gamma=float(boot.get("level", 0.95)),
            membership_threshold=float(senti.get("membership_threshold", 0.34)),
            min_topic_mentions=int(senti.get("min_topic_mentions", 30)),
            keywords_per_topic=int(topics.get("keywords", 10)),
            stopwords=opt_path(raw, "stopwords"),
            lexicon=opt_path(senti, "lexicon"),
            negators=opt_path(senti, "negators"),
            intensifiers=opt_path(senti, "intensifiers"),
            diminishers=opt_path(senti, "diminishers"),
            labels=opt_path(senti, "labels"),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad setting value: {exc}") from exc
    cfg = PipelineConfig(**kwargs)
    if overrides:
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        if cleaned:
            cfg = replace(cfg, **cleaned)

    missing = [
        str(p)
        for p in [cfg.polls, *cfg.articles.values(), cfg.stopwords, cfg.lexicon,
                  cfg.negators, cfg.intensifiers, cfg.diminishers, cfg.labels]
        if p is not None and not Path(p).is_file()
    ]
    if missing:
        raise ValueError(f"{path}: referenced files not found: {', '.join(missing)}")
    return cfg
