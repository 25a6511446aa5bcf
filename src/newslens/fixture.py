"""Synthetic corpus generator with known ground truth.

Builds a small news corpus with disjoint topic vocabularies, a planted
lead-lag link from one topic's coverage to a poll series, and planted
per-topic sentiment biases, then writes everything a pipeline run needs
plus a ground_truth.json for oracle comparison.

Design notes: every article names an entity (so none are dropped at
ingest), per-day token budgets are deterministic so the coverage signal
is exact, and all non-topic words go into the fixture stoplist so the
document-term matrix contains topic terms only.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .corpus import tokenize

__all__ = ["FixtureSpec", "generate_fixture"]

log = logging.getLogger(__name__)

_DAY = timedelta(days=1)

# Mention templates: (text with {e} placeholder, polarity v in {-1, 0, +1}
# from the perspective of the named entity).  Each template tokenizes to
# exactly three tokens besides punctuation, keeping per-day token budgets
# deterministic.
_TEMPLATES = {
    "pos": [("{e} was splendid.", 1), ("{e} seemed admirable.", 1)],
    "neg": [("{e} was dreadful.", -1), ("{e} looked dismal.", -1)],
    "neu": [("{e} met aides.", 0), ("{e} visited crowds.", 0)],
}

_TEMPLATE_EXTRA_WORDS = [
    "was", "seemed", "looked", "met", "visited",
    "aides", "crowds", "splendid", "admirable", "dreadful", "dismal",
]

_OUTLET = "synth_daily"


@dataclass(frozen=True)
class FixtureSpec:
    """Knobs for the synthetic corpus; defaults give a clean causal signal."""

    days: int = 120
    start: date = date(2021, 3, 1)
    n_topics: int = 5
    terms_per_topic: int = 40
    docs_per_topic_per_day: int = 3
    tokens_per_topic_per_day: int = 210
    sentence_len: int = 12
    mentions_per_doc: int = 2
    causal_topic: int = 0
    lag: int = 10
    beta: float = 2000.0
    noise_sigma: float = 0.12
    amplitude: float = 0.4
    slope: float = 0.6
    jitter: float = 0.06
    baseline_spread: float = 5.0
    sb_targets: tuple[float, ...] = (0.4, -0.4, 0.25, -0.25, 0.0)
    label_a: str = "Arden"
    label_b: str = "Briggs"

    def __post_init__(self) -> None:
        if self.n_topics < 2:
            raise ValueError("need at least 2 topics")
        if len(self.sb_targets) != self.n_topics:
            raise ValueError("one sb target per topic required")
        if not 0 <= self.causal_topic < self.n_topics:
            raise ValueError("causal_topic out of range")
        if self.lag < 0 or self.lag >= self.days // 3:
            raise ValueError("lag must be small relative to the span")
        if any(abs(s) > 0.8 for s in self.sb_targets):
            raise ValueError("sb targets must lie in [-0.8, 0.8]")


def _synthetic_words(count: int, forbidden: set[str]) -> list[str]:
    """Deterministic pronounceable cvcvc words avoiding real lexicon terms."""
    cons = "bdfgklmnprstvz"
    vow = "aeiou"
    cands = [
        c1 + v1 + c2 + v2 + c3
        for c1, v1, c2, v2, c3 in itertools.product(cons, vow, cons, vow, cons)
    ]
    # Fixed-seed shuffle spreads the letter space; unrelated to run seeds.
    order = np.random.default_rng(987654321).permutation(len(cands))
    out: list[str] = []
    for k in order:
        w = cands[k]
        if w in forbidden:
            continue
        out.append(w)
        if len(out) == count:
            return out
    raise ValueError("ran out of synthetic words")


def _bounded_walk(rng: np.random.Generator, n: int, step: float) -> np.ndarray:
    z = np.empty(n)
    z[0] = 0.0
    for t in range(1, n):
        nxt = z[t - 1] + rng.uniform(-step, step)
        if nxt > 1.0:
            nxt = 2.0 - nxt
        elif nxt < -1.0:
            nxt = -2.0 - nxt
        z[t] = nxt
    return z


def _class_distribution(target: float) -> list[tuple[str, str, float]]:
    """Cells (entity slot, polarity, probability) hitting the SB target.

    Both entities get 10% neutral mentions; the remaining mass tilts
    positive-for-A and negative-for-B by target/4 each, so the expected
    bias statistic equals the target.
    """
    q = target / 4.0
    return [
        ("a", "pos", 0.2 + q),
        ("a", "neg", 0.2 - q),
        ("a", "neu", 0.1),
        ("b", "pos", 0.2 - q),
        ("b", "neg", 0.2 + q),
        ("b", "neu", 0.1),
    ]


def generate_fixture(out_dir, seed: int, spec: FixtureSpec = FixtureSpec()) -> dict[str, Path]:
    """Write the synthetic corpus under ``out_dir``; returns written paths.

    Output: articles.jsonl, polls.csv, stopwords.txt, config.yaml, and
    ground_truth.json.  The config is ready for a pipeline run with a
    one-day window and per-topic-area normalization, which makes the
    planted coverage signal scale-free.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    from importlib.resources import files

    base_stop = [
        line.strip()
        for line in (files("newslens") / "data" / "stopwords_en.txt")
        .read_text(encoding="utf-8")
        .splitlines()
        if line.strip() and not line.startswith("#")
    ]
    forbidden = set(base_stop) | set(_TEMPLATE_EXTRA_WORDS)
    forbidden |= {spec.label_a.lower(), spec.label_b.lower()}
    lex = (files("newslens") / "data" / "lexicon.tsv").read_text(encoding="utf-8")
    for line in lex.splitlines():
        if line and not line.startswith("#"):
            forbidden.add(line.split("\t")[0])

    words = _synthetic_words(spec.n_topics * spec.terms_per_topic, forbidden)
    topic_terms = [
        words[i * spec.terms_per_topic : (i + 1) * spec.terms_per_topic]
        for i in range(spec.n_topics)
    ]

    # Per-day token budget per topic: smooth modulated path for the causal
    # topic (bounded walk + linear drift), light iid jitter elsewhere.
    d = spec.days
    factors = np.ones((spec.n_topics, d))
    walk = _bounded_walk(rng, d, 0.12)
    for i in range(spec.n_topics):
        if i == spec.causal_topic:
            factors[i] = 1.0 + spec.amplitude * walk + spec.slope * np.arange(d) / d
        else:
            factors[i] = 1.0 + spec.jitter * rng.uniform(-1.0, 1.0, size=d)
    budgets = np.rint(spec.tokens_per_topic_per_day * factors).astype(int)

    distributions = [_class_distribution(t) for t in spec.sb_targets]
    cum = [np.cumsum([p for _, _, p in dist]) for dist in distributions]

    articles: list[dict] = []
    topic_token_weight = np.zeros((spec.n_topics, d))
    mention_values: list[list[int]] = [[] for _ in range(spec.n_topics)]
    doc_topic: dict[str, int] = {}
    serial = 0
    for day_idx in range(d):
        day = spec.start + day_idx * _DAY
        for i in range(spec.n_topics):
            budget = budgets[i, day_idx]
            per_doc = np.full(spec.docs_per_topic_per_day, budget // spec.docs_per_topic_per_day)
            per_doc[: budget % spec.docs_per_topic_per_day] += 1
            for n_tokens in per_doc:
                serial += 1
                art_id = f"a{serial:05d}"
                doc_topic[art_id] = i
                title_words = [
                    topic_terms[i][int(k)]
                    for k in rng.integers(0, spec.terms_per_topic, size=4)
                ]
                title = " ".join(title_words).capitalize()
                body_tokens = [
                    topic_terms[i][int(k)]
                    for k in rng.integers(0, spec.terms_per_topic, size=int(n_tokens) - 4)
                ]
                sentences = []
                for s in range(0, len(body_tokens), spec.sentence_len):
                    chunk = body_tokens[s : s + spec.sentence_len]
                    sentences.append(" ".join(chunk).capitalize() + ".")
                for _ in range(spec.mentions_per_doc):
                    u = float(rng.random())
                    cell = int(np.searchsorted(cum[i], u, side="right"))
                    cell = min(cell, len(distributions[i]) - 1)
                    slot, pol, _ = distributions[i][cell]
                    entity = spec.label_a if slot == "a" else spec.label_b
                    tmpl, v = _TEMPLATES[pol][int(rng.integers(0, len(_TEMPLATES[pol])))]
                    sentences.append(tmpl.format(e=entity))
                    mention_values[i].append(v if slot == "a" else -v)
                body = " ".join(sentences)
                articles.append(
                    {
                        "id": art_id,
                        "outlet": _OUTLET,
                        "date": day.isoformat(),
                        "title": title,
                        "body": body,
                    }
                )
                topic_token_weight[i, day_idx] += len(tokenize(title + "\n" + body))

    # Spread series built from the measured (post-hoc) coverage share.
    share = topic_token_weight[spec.causal_topic]
    share = share / share.sum()
    dx = np.diff(share)
    eps = rng.normal(0.0, 1.0, size=d - 1)
    dct = spec.noise_sigma * eps
    if spec.beta != 0.0:
        for t in range(spec.lag + 1, d):
            dct[t - 1] += spec.beta * dx[t - spec.lag - 1]
    ct = spec.baseline_spread + np.concatenate(([0.0], np.cumsum(dct)))
    pct_a = 45.0 + ct / 2.0
    pct_b = 45.0 - ct / 2.0
    if pct_a.min() < 1 or pct_a.max() > 99 or pct_b.min() < 1 or pct_b.max() > 99:
        raise ValueError("planted parameters push poll percentages out of range")

    paths: dict[str, Path] = {}

    p = out / "articles.jsonl"
    with open(p, "w", encoding="utf-8") as fh:
        for art in articles:
            fh.write(json.dumps(art, sort_keys=True) + "\n")
    paths["articles"] = p

    p = out / "polls.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("date,pollster,pct_a,pct_b\n")
        for day_idx in range(d):
            day = spec.start + day_idx * _DAY
            fh.write(f"{day.isoformat()},synthpoll,{pct_a[day_idx]:.6f},{pct_b[day_idx]:.6f}\n")
    paths["polls"] = p

    p = out / "stopwords.txt"
    extra = sorted(set(_TEMPLATE_EXTRA_WORDS) | {spec.label_a.lower(), spec.label_b.lower()})
    p.write_text(
        "# fixture stoplist: base words plus template and entity tokens\n"
        + "\n".join(base_stop + extra)
        + "\n",
        encoding="utf-8",
    )
    paths["stopwords"] = p

    p = out / "lexicon.tsv"
    p.write_text(
        "splendid\t2\nadmirable\t1\ndreadful\t-2\ndismal\t-2\n",
        encoding="utf-8",
    )
    paths["lexicon"] = p
    for name, terms in (
        ("negators.txt", "not\nnever\nno\n"),
        ("intensifiers.txt", "very\nextremely\n"),
        ("diminishers.txt", "slightly\nsomewhat\n"),
    ):
        q = out / name
        q.write_text(terms, encoding="utf-8")
        paths[name.removesuffix(".txt")] = q

    p = out / "config.yaml"
    p.write_text(
        "\n".join(
            [
                f"seed: {seed}",
                "articles:",
                f"  {_OUTLET}: articles.jsonl",
                "polls: polls.csv",
                "entities:",
                f"  - label: {spec.label_a}",
                f"    aliases: [{spec.label_a}]",
                f"  - label: {spec.label_b}",
                f"    aliases: [{spec.label_b}]",
                "topics:",
                f"  count: {spec.n_topics}",
                "  normalization: per_topic_area",
                "  min_df: 2",
                "window_days: 1",
                "analysis:",
                f"  max_lag: {max(spec.lag + 5, 10)}",
                "  permutations: 300",
                "bootstrap:",
                "  samples: 1000",
                "  level: 0.95",
                "sentiment:",
                "  lexicon: lexicon.tsv",
                "  negators: negators.txt",
                "  intensifiers: intensifiers.txt",
                "  diminishers: diminishers.txt",
                "stopwords: stopwords.txt",
                "output: out",
                "",
            ]
        ),
        encoding="utf-8",
    )
    paths["config"] = p

    half = d // 4
    early = topic_token_weight[:, :half].sum(axis=1) / topic_token_weight[:, :half].sum()
    late = topic_token_weight[:, -half:].sum(axis=1) / topic_token_weight[:, -half:].sum()
    truth = {
        "seed": seed,
        "outlet": _OUTLET,
        "days": d,
        "start": spec.start.isoformat(),
        "entities": {"a": spec.label_a, "b": spec.label_b},
        "topics": [
            {
                "terms": topic_terms[i],
                "sb_target": spec.sb_targets[i],
                "sb_empirical": (
                    float(np.mean(mention_values[i])) if mention_values[i] else None
                ),
                "mentions": len(mention_values[i]),
            }
            for i in range(spec.n_topics)
        ],
        "causal": (
            None
            if spec.beta == 0.0
            else {
                "topic": spec.causal_topic,
                "lag": spec.lag,
                "beta": spec.beta,
                "noise_sigma": spec.noise_sigma,
            }
        ),
        "coverage_share_early": [float(v) for v in early],
        "coverage_share_late": [float(v) for v in late],
        "article_topics": doc_topic,
    }
    p = out / "ground_truth.json"
    p.write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths["ground_truth"] = p

    log.info(
        "fixture: %d articles over %d days, %d mentions",
        len(articles),
        d,
        sum(len(v) for v in mention_values),
    )
    return paths
