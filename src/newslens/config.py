"""Run configuration: a YAML or JSON file plus command-line overrides."""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import yaml

from .corpus import BUNDLED_DATA, EntitySpec
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


def _setting(key: str, parse, default=MISSING, *, low=None, report: str | None = None):
    """A PipelineConfig field that config-file ``key`` sets through ``parse``.

    ``key`` is dotted (section.key, or key at the top level), and a Path
    the parse returns is relative to the config file.  A value below
    ``low`` is rejected.  ``report`` is the field's key in report.json's
    settings when that is not its name.
    """
    metadata = {"key": key, "parse": parse, "low": low, "report": report}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs; load_config resolves its paths.

    Each field's declaration is the one place its setting is defined:
    its config-file key and parse, its default, its least value and its
    report.json key (see ``_setting``).
    """

    articles: dict[str, Path] = _setting("articles", _articles)
    polls: Path = _setting("polls", _file)
    entities: tuple[EntitySpec, EntitySpec] = _setting("entities", _entities)
    seed: int = _setting("seed", _integer, low=0)
    out_dir: Path = _setting("output", Path, Path("out"))
    n_topics: int = _setting("topics.count", _integer, 6, low=2)
    drop_topics: tuple[int, ...] = _setting("topics.drop", _integers, ())
    normalization: str = _setting("topics.normalization", str, "per_day_share")
    min_df: int = _setting("topics.min_df", _integer, 2, low=1)
    window_days: int = _setting("window_days", _integer, 7, low=1)
    max_lag: int = _setting("analysis.max_lag", _integer, 20, low=0)
    n_perm: int = _setting("analysis.permutations", _integer, 10000, low=1, report="permutations")
    bootstrap_b: int = _setting(
        "bootstrap.samples", _integer, 10000, low=2, report="bootstrap_samples"
    )
    bootstrap_gamma: float = _setting("bootstrap.level", _fraction, 0.95, report="bootstrap_level")
    membership_threshold: float = _setting("sentiment.membership_threshold", _fraction, 0.34)
    min_topic_mentions: int = _setting("sentiment.min_topic_mentions", _integer, 30, low=1)
    keywords_per_topic: int = _setting("topics.keywords", _integer, 10, low=1)
    stopwords: Path = _setting("stopwords", _file, BUNDLED_DATA / "stopwords_en.txt")
    lexicon: Path = _setting("sentiment.lexicon", Path, BUNDLED_DATA)
    labels: Path | None = _setting("sentiment.labels", _file, None)

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
        for f in fields(self):
            low, value = f.metadata["low"], getattr(self, f.name)
            if low is not None and value < low:
                raise _RangeError(f.name, f"must be >= {low}, got {value}")
        if self.normalization not in NORMALIZATION_MODES:
            raise _RangeError(
                "normalization",
                f"must be one of {', '.join(NORMALIZATION_MODES)}, got {self.normalization!r}",
            )
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


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a YAML or JSON config file; relative paths resolve against it.

    The file may hold only the keys PipelineConfig's fields declare, at
    the top level and in each section; any other key is rejected by its
    dotted name.  A null value counts as absent, and an absent key keeps
    the field's default.

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

    keys = {f.name: f.metadata["key"] for f in fields(PipelineConfig)}
    sections: dict = {"": raw}
    for dotted in keys.values():
        name = dotted.rpartition(".")[0]
        if name not in sections:
            body = raw.get(name)
            if body is not None and not isinstance(body, dict):
                raise ValueError(f"{path}: {name!r} must be a mapping, got {type(body).__name__}")
            sections[name] = body or {}
    # (section, key) pairs: a dotted key at the top level names no section's key.
    listed = {dotted.rpartition(".")[::2] for dotted in keys.values()}
    listed |= {("", name) for name in sections if name}
    found = [(name, key) for name, body in sections.items() for key in body]
    unknown = [f"{s}.{k}".removeprefix(".") for s, k in found if (s, k) not in listed]
    if unknown:
        raise ValueError(f"{path}: unknown config keys {', '.join(map(repr, unknown))}")

    settings = {}
    for f in fields(PipelineConfig):
        dotted, parse = f.metadata["key"], f.metadata["parse"]
        name, _, key = dotted.rpartition(".")
        value = sections[name].get(key)
        if value is None:
            value = f.default
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
        settings[f.name] = value
    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        cfg = PipelineConfig(**{**settings, **overridden})
    except _RangeError as exc:
        name = exc.field if exc.field in overridden else keys[exc.field]
        raise ValueError(f"{path}: {name} {exc.problem}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {str(exc).removeprefix('config: ')}") from None

    inputs = [getattr(cfg, f.name) for f in fields(cfg) if f.metadata["parse"] is _file]
    inputs += [Path(cfg.lexicon) / name for name in LEXICON_FILES]
    missing = [
        str(p) for p in [*cfg.articles.values(), *inputs] if p is not None and not Path(p).is_file()
    ]
    if missing:
        raise ValueError(f"{path}: referenced files not found: {', '.join(missing)}")
    return cfg
