"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from datetime import date, timedelta

import pytest

from newslens.corpus import Article, EntitySpec

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # Property tests draw the same examples on every run and keep no
    # example database, so a tier-1 run repeats exactly.
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


def make_article(
    id: str = "a1",
    outlet: str = "outlet_one",
    day: date = date(2021, 3, 1),
    title: str = "Arden speaks",
    body: str = "Arden was splendid. The crowd cheered.",
) -> Article:
    return Article(id=id, outlet=outlet, date=day, title=title, body=body)


@pytest.fixture
def entity_pair() -> tuple[EntitySpec, EntitySpec]:
    return (
        EntitySpec(label="Arden", aliases=("Arden",)),
        EntitySpec(label="Briggs", aliases=("Briggs",)),
    )


def write_articles(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def article_row(
    id: str,
    day: str = "2021-03-01",
    outlet: str = "outlet_one",
    title: str = "Arden speaks",
    body: str = "Arden was splendid. The crowd cheered.",
) -> dict:
    return {"id": id, "outlet": outlet, "date": day, "title": title, "body": body}


def days_from(start: date, n: int) -> list[date]:
    return [start + timedelta(days=i) for i in range(n)]


_TOPIC_WORDS = (
    ("harbor", "tunnel", "budget", "contractor"),
    ("clinic", "vaccine", "nurse", "ward"),
    ("stadium", "league", "match", "referee"),
)


def build_run_dir(
    root, days: int = 45, seed: int = 5, outlet: str = "outlet_one", article_days: int | None = None
):
    """Write a small but complete corpus + polls + config under ``root``.

    One article per topic per day with distinctive vocabulary, each
    naming one of the two entities, and a smoothly wiggling poll series.
    Polls cover ``days`` days, articles the first ``article_days`` of
    them (all by default).  Returns the config path.
    """
    import math

    start = date(2021, 3, 1)
    rows = []
    k = 0
    for d in range(days if article_days is None else article_days):
        day = (start + timedelta(days=d)).isoformat()
        for t, words in enumerate(_TOPIC_WORDS):
            entity = "Arden" if (d + t) % 2 == 0 else "Briggs"
            body = (
                f"{entity} praised the {words[0]} {words[1]} plan. "
                f"The {words[0]} {words[1]} {words[2]} {words[3]} grew again."
            )
            rows.append(
                {
                    "id": f"d{d:03d}t{t}",
                    "outlet": outlet,
                    "date": day,
                    "title": f"{words[0]} {words[2]} report",
                    "body": body,
                }
            )
            k += 1
    write_articles(root / "articles.jsonl", rows)

    lines = ["date,pollster,pct_a,pct_b"]
    for d in range(days):
        day = (start + timedelta(days=d)).isoformat()
        pct_a = 50.0 + 2.0 * math.sin(d / 3.0)
        pct_b = 40.0 - math.cos(d / 2.0)
        lines.append(f"{day},synthetic,{pct_a:.4f},{pct_b:.4f}")
    (root / "polls.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = f"""\
articles:
  {outlet}: articles.jsonl
polls: polls.csv
entities:
  - label: Arden
    aliases: [Arden]
  - label: Briggs
    aliases: [Briggs]
seed: {seed}
output: out
window_days: 3
topics:
  count: 3
analysis:
  max_lag: 5
  permutations: 50
bootstrap:
  samples: 200
  level: 0.95
sentiment:
  min_topic_mentions: 5
"""
    path = root / "config.yaml"
    path.write_text(config, encoding="utf-8")
    return path
