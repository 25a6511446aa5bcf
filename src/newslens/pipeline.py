"""End-to-end run: ingest, topics, sentiment, correlation, lead-lag tests.

Stages are plain functions over a shared mutable RunState, run in the
order of STAGES.  ``run_pipeline(config, through=stage)`` runs the prefix
ending at ``stage`` (all of them by default); a stage failure surfaces as
a PipelineError naming the stage.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bootstrap import BootstrapResult, bootstrap_sb
from .config import PipelineConfig
from .corpus import Article, PollRecord, daily_spread, load_articles, load_polls
from .sentiment import (
    Lexicon,
    MentionRecord,
    SbStatistic,
    SentimentTally,
    default_lexicon,
    load_labels,
    load_lexicon,
    mention_records,
    per_topic_sb,
    sb_series,
    sentiment_bias,
    tally_codes,
)
from .series import DatedSeries
from .topics import (
    NmfFactors,
    TopicCoverage,
    agenda_profile,
    nmf_factorize,
    top_keywords,
    topic_weight_series,
)
from .tsstats import (
    GRANGER_ALPHA,
    GrangerResult,
    LagCorrelation,
    granger_scan,
    lagged_correlation_scan,
)
from .vectorize import load_stopwords, tfidf_matrix

__all__ = ["STAGES", "PipelineError", "OutletResult", "ReportBundle", "RunState", "run_pipeline"]

STAGES = ("ingest", "topics", "sentiment", "correlate", "causality")

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class OutletResult:
    """Everything computed for one outlet."""

    outlet: str
    n_articles: int
    factors: NmfFactors | None = None
    keywords: list[list[str]] = field(default_factory=list)
    coverage: TopicCoverage | None = None
    agenda: np.ndarray | None = None
    mention_series: dict[str, DatedSeries] = field(default_factory=dict)
    mentions: list[MentionRecord] = field(default_factory=list)
    sb_overall: SbStatistic | None = None
    sb_daily: DatedSeries | None = None
    sb_by_topic: list[SbStatistic | None] = field(default_factory=list)
    sb_bootstrap: BootstrapResult | None = None
    mention_correlations: dict[str, list[LagCorrelation]] = field(default_factory=dict)
    topic_correlations: dict[int, list[LagCorrelation]] = field(default_factory=dict)
    granger: list[GrangerResult] = field(default_factory=list)


@dataclass
class RunState:
    """Accumulated pipeline state; stages fill it in order."""

    config: PipelineConfig
    polls: list[PollRecord] = field(default_factory=list)
    spread: DatedSeries | None = None
    articles: dict[str, list[Article]] = field(default_factory=dict)
    lexicon: Lexicon | None = None
    labels: dict[tuple[str, int], str] | None = None
    stopwords: frozenset[str] = frozenset()
    outlets: dict[str, OutletResult] = field(default_factory=dict)


@dataclass
class ReportBundle:
    """Deterministic run results plus runtime bookkeeping.

    ``runtime_seconds`` is intentionally kept out of ``to_dict`` so the
    written report is byte-stable across reruns; it lands in the manifest
    instead.
    """

    state: RunState
    runtime_seconds: float

    def to_dict(self) -> dict:
        import scipy

        cfg = self.state.config
        out: dict = {
            "versions": {
                "newslens": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "rng": "numpy-pcg64",
            "settings": {
                "seed": cfg.seed,
                "n_topics": cfg.n_topics,
                "drop_topics": list(cfg.drop_topics),
                "normalization": cfg.normalization,
                "window_days": cfg.window_days,
                "max_lag": cfg.max_lag,
                "permutations": cfg.n_perm,
                "bootstrap_samples": cfg.bootstrap_b,
                "bootstrap_level": cfg.bootstrap_gamma,
                "membership_threshold": cfg.membership_threshold,
                "min_topic_mentions": cfg.min_topic_mentions,
                "entities": [
                    {"label": e.label, "aliases": list(e.aliases)}
                    for e in cfg.entities
                ],
            },
            "polls": {
                "records": len(self.state.polls),
                "spread": _series_dict(self.state.spread),
            },
            "outlets": {},
        }
        for name in sorted(self.state.outlets):
            r = self.state.outlets[name]
            entry: dict = {
                "articles": r.n_articles,
                "topics": {
                    "keywords": r.keywords,
                    "kept": list(r.coverage.topic_ids) if r.coverage else [],
                    "agenda": [float(v) for v in r.agenda] if r.agenda is not None else [],
                    "nmf_error": r.factors.final_error if r.factors else None,
                    "nmf_iterations": r.factors.iterations if r.factors else None,
                    "nmf_converged": r.factors.converged if r.factors else None,
                    "coverage": [_series_dict(s) for s in (r.coverage.topics if r.coverage else [])],
                },
                "mentions": {
                    "series": {k: _series_dict(v) for k, v in sorted(r.mention_series.items())},
                    "count": len(r.mentions),
                },
                "sentiment_bias": {
                    "overall": _sb_dict(r.sb_overall),
                    "daily": _series_dict(r.sb_daily),
                    "per_topic": [_sb_dict(s) for s in r.sb_by_topic],
                    "bootstrap": _bootstrap_dict(r.sb_bootstrap),
                },
                "correlations": {
                    "mentions": {
                        k: [_lag_dict(c) for c in v]
                        for k, v in sorted(r.mention_correlations.items())
                    },
                    "topics": {
                        str(k): [_lag_dict(c) for c in v]
                        for k, v in sorted(r.topic_correlations.items())
                    },
                },
                "granger": [_granger_dict(g) for g in r.granger],
            }
            out["outlets"][name] = entry
        return out


def _series_dict(s: DatedSeries | None) -> dict | None:
    if s is None:
        return None
    return {
        "label": s.label,
        "start": s.start.isoformat(),
        "values": [float(v) for v in s.values],
    }


def _sb_dict(sb: SbStatistic | None) -> dict | None:
    if sb is None:
        return None
    t = sb.tally
    return {
        "value": sb.value,
        "total": t.total,
        "counts": {
            t.label_a: {"positive": t.pos_a, "negative": t.neg_a, "neutral": t.neu_a},
            t.label_b: {"positive": t.pos_b, "negative": t.neg_b, "neutral": t.neu_b},
        },
    }


def _bootstrap_dict(b: BootstrapResult | None) -> dict | None:
    if b is None:
        return None
    return {
        "point": b.point,
        "ci_low": b.ci_low,
        "ci_high": b.ci_high,
        "p_sign": b.p_sign,
        "stderr": b.stderr,
        "resamples": b.n_resamples,
        "level": b.level,
        "generator": b.generator,
    }


def _lag_dict(c: LagCorrelation) -> dict:
    return {"lag": c.lag, "rho": c.rho, "p_value": c.p_value, "n_obs": c.n_obs}


def _granger_dict(g: GrangerResult) -> dict:
    return {
        "topic": g.topic,
        "lag": g.lag,
        "beta": g.beta,
        "stderr": g.stderr,
        "t_stat": g.t_stat if np.isfinite(g.t_stat) else None,
        "p_value": g.p_value,
        "n_obs": g.n_obs,
        "significant": g.p_value < GRANGER_ALPHA,
    }


# --- stages -----------------------------------------------------------------

def _stage(name: str):
    def wrap(fn):
        def inner(state: RunState) -> RunState:
            try:
                fn(state)
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(name, exc) from exc
            return state

        inner.__name__ = fn.__name__
        return inner

    return wrap


@_stage("ingest")
def stage_ingest(state: RunState) -> None:
    cfg = state.config
    state.polls = load_polls(cfg.polls)
    state.spread = daily_spread(state.polls, cfg.window_days)
    # The lag scan needs max_lag < half the spread; check it before the
    # topic and sentiment stages spend their time.
    if cfg.max_lag >= len(state.spread) / 2:
        raise ValueError(
            f"analysis.max_lag {cfg.max_lag} too large for a poll spread of "
            f"{len(state.spread)} days; it must be below half of it"
        )
    if cfg.stopwords is not None:
        state.stopwords = load_stopwords(cfg.stopwords)
    else:
        from importlib.resources import files

        state.stopwords = load_stopwords(files("newslens") / "data" / "stopwords_en.txt")
    if cfg.lexicon is not None:
        state.lexicon = load_lexicon(cfg.lexicon, cfg.negators, cfg.intensifiers, cfg.diminishers)
    else:
        state.lexicon = default_lexicon()
    state.labels = load_labels(cfg.labels) if cfg.labels is not None else None
    for outlet, path in sorted(cfg.articles.items()):
        arts = load_articles(path, cfg.entities)
        state.articles[outlet] = arts
        state.outlets[outlet] = OutletResult(outlet=outlet, n_articles=len(arts))
        log.info("outlet %s: %d articles kept", outlet, len(arts))


@_stage("topics")
def stage_topics(state: RunState) -> None:
    cfg = state.config
    for outlet, arts in sorted(state.articles.items()):
        matrix = tfidf_matrix(arts, state.stopwords, cfg.min_df)
        factors = nmf_factorize(matrix, cfg.n_topics, seed=cfg.seed)
        coverage = topic_weight_series(
            factors,
            arts,
            window_days=cfg.window_days,
            mode=cfg.normalization,
            drop=cfg.drop_topics,
        )
        res = state.outlets[outlet]
        res.factors = factors
        res.keywords = top_keywords(factors, cfg.keywords_per_topic)
        res.coverage = coverage
        res.agenda = agenda_profile(coverage)


@_stage("sentiment")
def stage_sentiment(state: RunState) -> None:
    cfg = state.config
    label_a, label_b = cfg.entities[0].label, cfg.entities[1].label
    for outlet, arts in sorted(state.articles.items()):
        res = state.outlets[outlet]
        res.mention_series, res.mentions = mention_records(
            arts, cfg.entities, state.lexicon, state.labels, cfg.window_days
        )
        if not res.mentions:
            raise ValueError(f"outlet {outlet}: no entity mentions extracted")
        codes = tally_codes(res.mentions, label_a, label_b)
        tally = SentimentTally.from_codes(label_a, label_b, codes)
        res.sb_overall = sentiment_bias(tally)
        res.sb_daily = sb_series(res.mentions, codes, cfg.window_days)
        if res.factors is not None:
            by_topic = per_topic_sb(
                res.mentions,
                codes,
                res.factors,
                label_a,
                label_b,
                cfg.membership_threshold,
                cfg.min_topic_mentions,
            )
            kept = res.coverage.topic_ids if res.coverage else range(len(by_topic))
            res.sb_by_topic = [by_topic[i] for i in kept]
        res.sb_bootstrap = bootstrap_sb(tally, cfg.bootstrap_b, cfg.bootstrap_gamma, cfg.seed)


@_stage("correlate")
def stage_correlate(state: RunState) -> None:
    cfg = state.config
    # One scan over every series of every outlet, so series over the same
    # days share their permutation draws; labels name the outlet.
    slots: list[tuple[dict, str | int]] = []
    series: list[DatedSeries] = []
    for outlet in sorted(state.articles):
        res = state.outlets[outlet]
        named = [
            (res.mention_correlations, label, s) for label, s in sorted(res.mention_series.items())
        ]
        if res.coverage is not None:
            named += [
                (res.topic_correlations, topic_id, s)
                for topic_id, s in zip(res.coverage.topic_ids, res.coverage.topics)
            ]
        for target, key, s in named:
            slots.append((target, key))
            series.append(s.with_values(s.values, label=f"{outlet}/{s.label}"))
    scans = lagged_correlation_scan(series, state.spread, cfg.max_lag, cfg.n_perm, cfg.seed)
    for (target, key), scan in zip(slots, scans):
        target[key] = scan


@_stage("causality")
def stage_causality(state: RunState) -> None:
    cfg = state.config
    for outlet in sorted(state.articles):
        res = state.outlets[outlet]
        if res.coverage is None:
            continue
        results = granger_scan(state.spread, list(res.coverage.topics), cfg.max_lag)
        # topic field from the scan indexes the kept list; map it back to ids
        res.granger = [replace(g, topic=res.coverage.topic_ids[g.topic]) for g in results]


def run_pipeline(config: PipelineConfig, through: str = "causality") -> ReportBundle:
    """Run the stages up to and including ``through``; return the results.

    Fields that later stages fill stay empty.  An unknown stage name
    raises ValueError.
    """
    if through not in STAGES:
        raise ValueError(f"unknown stage {through!r}; expected one of {', '.join(STAGES)}")
    t0 = time.monotonic()
    state = RunState(config=config)
    # Looked up at call time, so a wrapper patched over a stage_* name runs.
    stages = (stage_ingest, stage_topics, stage_sentiment, stage_correlate, stage_causality)
    for stage in stages[: STAGES.index(through) + 1]:
        stage(state)
    return ReportBundle(state=state, runtime_seconds=time.monotonic() - t0)
