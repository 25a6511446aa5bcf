"""End-to-end run: ingest, topics, sentiment, correlation, lead-lag tests.

Stages are plain functions over a shared mutable RunState, run in the
order of STAGES.  ``run_pipeline(config, through=stage)`` runs the prefix
ending at ``stage`` (all of them by default) and is the one place a stage
runs: it raises a stage's failure as a PipelineError naming the stage.
Called directly, a stage raises its own error.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import NoReturn

import numpy as np

from .bootstrap import BootstrapResult, bootstrap_sb
from .config import PipelineConfig
from .corpus import Article, PollRecord, daily_spread, load_articles, load_polls
from .sentiment import (
    Lexicon,
    MentionRecord,
    SbStatistic,
    SentimentTally,
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
    """Everything computed for one outlet, from its kept articles."""

    outlet: str
    articles: list[Article]
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

    @property
    def n_articles(self) -> int:
        return len(self.articles)


@dataclass
class RunState:
    """Accumulated pipeline state; stages fill it in order.

    ``outlets`` is in outlet name order, set once by ``stage_ingest``.
    """

    config: PipelineConfig
    polls: list[PollRecord] = field(default_factory=list)
    spread: DatedSeries | None = None
    lexicon: Lexicon | None = None
    labels: dict[tuple[str, int], str] | None = None
    stopwords: frozenset[str] = frozenset()
    outlets: dict[str, OutletResult] = field(default_factory=dict)


@dataclass
class ReportBundle:
    """Deterministic run results plus runtime bookkeeping.

    ``runtime_seconds`` is intentionally kept out of ``report.report_dict``
    so the written report is byte-stable across reruns; it lands in the
    manifest instead.
    """

    state: RunState
    runtime_seconds: float


# --- stages -----------------------------------------------------------------

def _check_max_lag(max_lag: int, days: int, what: str) -> None:
    """Raise unless max_lag < days / 2, as the lag scan needs of every series.

    Checked at ingest, before the topic and sentiment stages spend their
    time; the scan's own check stays as the backstop.
    """
    if max_lag >= days / 2:
        raise ValueError(
            f"analysis.max_lag (--max-lag) is {max_lag}, too large for the {days}-day "
            f"{what}; it must be at most {(days - 1) // 2}"
        )


def stage_ingest(state: RunState) -> None:
    cfg = state.config
    state.polls = load_polls(cfg.polls)
    state.spread = daily_spread(state.polls, cfg.window_days)
    _check_max_lag(cfg.max_lag, len(state.spread), f"poll spread of {cfg.polls}")
    state.stopwords = load_stopwords(cfg.stopwords)
    state.lexicon = load_lexicon(cfg.lexicon)
    state.labels = load_labels(cfg.labels) if cfg.labels is not None else None
    for outlet, path in sorted(cfg.articles.items()):
        res = state.outlets[outlet] = OutletResult(outlet, load_articles(path, cfg.entities))
        log.info("outlet %s: %d articles kept", outlet, res.n_articles)
        # An outlet's mention series runs from its first to its last article.
        dates = [a.date for a in res.articles]
        span = (max(dates) - min(dates)).days + 1
        _check_max_lag(cfg.max_lag, span, f"article span of outlet {outlet!r} in {path}")


def stage_topics(state: RunState) -> None:
    cfg = state.config
    for res in state.outlets.values():
        matrix = tfidf_matrix(res.articles, state.stopwords, cfg.min_df)
        res.factors = nmf_factorize(matrix, cfg.n_topics)
        res.coverage = topic_weight_series(
            res.factors,
            res.articles,
            window_days=cfg.window_days,
            mode=cfg.normalization,
            drop=cfg.drop_topics,
        )
        res.keywords = top_keywords(res.factors, cfg.keywords_per_topic)
        res.agenda = agenda_profile(res.coverage)


def _read_mentions(state: RunState, res: OutletResult) -> None:
    cfg = state.config
    res.mention_series, res.mentions = mention_records(
        res.articles, cfg.entities, state.lexicon, state.labels, cfg.window_days
    )


def stage_sentiment(state: RunState) -> None:
    cfg = state.config
    label_a, label_b = cfg.entities[0].label, cfg.entities[1].label
    for res in state.outlets.values():
        # Outlets the runner read beside the topics stage have their series.
        if not res.mention_series:
            _read_mentions(state, res)
        if not res.mentions:
            raise ValueError(f"outlet {res.outlet}: no entity mentions extracted")
        codes = tally_codes(res.mentions, label_a, label_b)
        tally = SentimentTally.from_codes(label_a, label_b, codes)
        res.sb_overall = sentiment_bias(tally)
        res.sb_daily = sb_series(res.mentions, codes, cfg.window_days)
        by_topic = per_topic_sb(
            res.mentions,
            codes,
            res.factors,
            label_a,
            label_b,
            cfg.membership_threshold,
            cfg.min_topic_mentions,
        )
        res.sb_by_topic = [by_topic[i] for i in res.coverage.topic_ids]
        res.sb_bootstrap = bootstrap_sb(tally, cfg.bootstrap_b, cfg.bootstrap_gamma, cfg.seed)


def _outlet_series(
    state: RunState, mentions: bool
) -> tuple[list[tuple[OutletResult, str | int]], list[DatedSeries]]:
    """All outlets' mention (if ``mentions``) and kept topic series, each with its (outlet, key).

    Labels become ``<outlet>/<label>``, so a scan's warnings and errors name the outlet.
    """
    slots, series = [], []
    for res in state.outlets.values():
        named = sorted(res.mention_series.items()) if mentions else []
        named += zip(res.coverage.topic_ids, res.coverage.topics)
        for key, s in named:
            slots.append((res, key))
            series.append(s.with_values(s.values, label=f"{res.outlet}/{s.label}"))
    return slots, series


def stage_correlate(state: RunState) -> None:
    cfg = state.config
    # One scan over every series of every outlet, so series over the same
    # days share their permutation draws.
    slots, series = _outlet_series(state, mentions=True)
    scans = lagged_correlation_scan(series, state.spread, cfg.max_lag, cfg.n_perm, cfg.seed)
    for (res, key), scan in zip(slots, scans):
        target = res.topic_correlations if isinstance(key, int) else res.mention_correlations
        target[key] = scan


def stage_causality(state: RunState) -> None:
    # One scan over every outlet's kept topics, so the shared spread is
    # differenced once.
    slots, series = _outlet_series(state, mentions=False)
    scans = granger_scan(state.spread, series, state.config.max_lag)
    for (res, topic_id), cells in zip(slots, scans):
        res.granger.extend(replace(g, topic=topic_id) for g in cells)


# --- the topics stage beside mention reading ----------------------------------

def _worker_usable(names: tuple[str, ...]) -> bool:
    """Whether the runner may fit topics in a forked child while it reads mentions.

    Only when the sentiment stage runs too, with two CPUs to run on, and in
    a process of one OS thread: a child forked from a threaded process (one
    whose BLAS pools are not pinned to one thread) can deadlock on a lock
    another thread held.
    """
    if "sentiment" not in names or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


@contextlib.contextmanager
def _held_log_records() -> Iterator[list[logging.LogRecord]]:
    """Collect the log records made inside the block instead of handling them.

    ``logging.getLogger(record.name).handle(record)`` handles one later.
    Loggers are patched process-wide, so the process must have one thread.
    """
    held: list[logging.LogRecord] = []
    handle = logging.Logger.handle
    logging.Logger.handle = lambda logger, record: held.append(record)
    try:
        yield held
    finally:
        logging.Logger.handle = handle


def _handle(records: list[logging.LogRecord]) -> None:
    for record in records:
        logging.getLogger(record.name).handle(record)


def _topics_child(state: RunState, pipe_fd: int) -> NoReturn:
    """In the forked child: run stage_topics, send its fields and log records, exit.

    Exit status 0 means everything was sent; the child never returns.
    """
    status = 1
    try:
        with _held_log_records() as records:
            stage_topics(state)
        fields = [(r.factors, r.keywords, r.coverage, r.agenda) for r in state.outlets.values()]
        with open(pipe_fd, "wb") as pipe:
            # Protocol 5 keeps read-only numpy arrays read-only.
            pickle.dump((fields, records), pipe, protocol=5)
        status = 0
    finally:
        os._exit(status)


def _fit_topics_beside_mentions(state: RunState) -> None:
    """Run stage_topics in a forked child while this process reads every outlet's mentions.

    The child's log records are handled ahead of the mention reader's, as
    when the stages run in turn.  If the child fails, is killed or sends
    nothing, stage_topics runs again here, so a topics failure raises its
    own exception.  An outlet whose mention reading fails is left unread:
    stage_sentiment reads it again and raises, after any topics failure.
    The child is reaped before this returns or raises, and killed first if
    this process is interrupted.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        stage_topics(state)
        return
    if pid == 0:
        os.close(read_fd)
        _topics_child(state, write_fd)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe, _held_log_records() as own:
            with contextlib.suppress(Exception):
                for res in state.outlets.values():
                    _read_mentions(state, res)
            sent = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status == 0:
        fields, records = pickle.loads(sent)
        for res, (factors, keywords, coverage, agenda) in zip(state.outlets.values(), fields):
            res.factors, res.keywords, res.coverage, res.agenda = factors, keywords, coverage, agenda
        _handle(records)
    else:
        stage_topics(state)
    _handle(own)


def run_pipeline(config: PipelineConfig, through: str = "causality") -> ReportBundle:
    """Run the stages up to and including ``through``; return the results.

    Fields that later stages fill stay empty.  An unknown stage name
    raises ValueError.  When ``_worker_usable`` allows, the topics stage
    runs in a forked child beside the sentiment stage's mention reading;
    the results are the same either way.
    """
    if through not in STAGES:
        raise ValueError(f"unknown stage {through!r}; expected one of {', '.join(STAGES)}")
    t0 = time.monotonic()
    state = RunState(config=config)
    # Looked up at call time, so a wrapper patched over a stage_* name runs;
    # the name comes from STAGES, so such a wrapper cannot rename the stage.
    stages = (stage_ingest, stage_topics, stage_sentiment, stage_correlate, stage_causality)
    names = STAGES[: STAGES.index(through) + 1]
    if _worker_usable(names):
        stages = (stage_ingest, _fit_topics_beside_mentions, *stages[2:])
    for name, stage in zip(names, stages):
        try:
            stage(state)
        except Exception as exc:
            raise PipelineError(name, exc) from exc
    return ReportBundle(state=state, runtime_seconds=time.monotonic() - t0)
