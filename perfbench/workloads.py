"""The benchmark's workloads, built from a seed with the in-repo fixture generator.

A workload is handed to the program only as files on disk plus
``PipelineConfig`` field overrides; the program never sees a workload name.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from newslens.fixture import FixtureSpec, generate_fixture

NAMES = ("corpus_12k", "stats_defaults", "outlets3_k12")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    overrides: dict
    truth: Path | None  # ground_truth.json the gate checks the report against


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    if name == "corpus_12k":
        files = generate_fixture(work, seed, FixtureSpec(days=240, docs_per_topic_per_day=10))
        return Workload(name, files["config"], {"n_perm": 100}, files["ground_truth"])
    if name == "stats_defaults":
        # The documented analysis defaults, except permutations (10,000 by
        # default) so that one run stays under about 10 s.
        files = generate_fixture(work, seed)
        overrides = {"window_days": 7, "bootstrap_b": 10000, "n_perm": 2000}
        return Workload(name, files["config"], overrides, files["ground_truth"])
    if name == "outlets3_k12":
        spec = FixtureSpec(days=200, docs_per_topic_per_day=4)
        for k in range(3):
            generate_fixture(work / f"outlet{k}", seed + k, spec)
        # Polls, stoplist and lexicon come from the first outlet's fixture;
        # the combined config sits beside them so their relative paths hold.
        first = work / "outlet0"
        raw = yaml.safe_load((first / "config.yaml").read_text(encoding="utf-8"))
        raw["articles"] = {f"outlet{k}": f"../outlet{k}/articles.jsonl" for k in range(3)}
        config = first / "config_outlets3.yaml"
        config.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
        return Workload(name, config, {"n_topics": 12, "n_perm": 100}, None)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
