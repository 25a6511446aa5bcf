import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock

import numpy as np
import pytest
import yaml

import newslens
import newslens.corpus as corpus
import newslens.pipeline as pipeline
import newslens.sentiment as sentiment
import newslens.vectorize as vectorize
from newslens.cli import BLAS_THREAD_VARS
from newslens.config import load_config
from newslens.fixture import generate_fixture
from newslens.pipeline import (
    STAGES,
    PipelineError,
    run_pipeline,
    stage_causality,
    stage_ingest,
    stage_topics,
    RunState,
)
from newslens.report import emit_outputs, report_dict

from conftest import article_row, build_run_dir


@pytest.fixture(scope="module")
def run_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("minirun")
    cfg = load_config(build_run_dir(root))
    return run_pipeline(cfg)


class TestRunPipeline:
    def test_outlet_results_populated(self, run_bundle):
        res = run_bundle.state.outlets["outlet_one"]
        assert res.n_articles == 45 * 3
        assert res.factors is not None
        assert res.factors.n_topics == 3
        assert len(res.keywords) == 3
        assert res.coverage is not None
        assert res.agenda is not None
        assert np.isclose(res.agenda.sum(), 1.0)

    def test_sentiment_results(self, run_bundle):
        res = run_bundle.state.outlets["outlet_one"]
        assert set(res.mention_series) == {"Arden", "Briggs"}
        assert res.mentions
        assert res.sb_overall is not None
        assert -1.0 <= res.sb_overall.value <= 1.0
        assert res.sb_daily is not None
        assert res.sb_bootstrap is not None
        assert res.sb_bootstrap.ci_low <= res.sb_bootstrap.point <= res.sb_bootstrap.ci_high
        assert res.sb_bootstrap.stderr >= 0.0
        assert len(res.sb_by_topic) == len(res.coverage.topic_ids)

    def test_correlation_tables(self, run_bundle):
        res = run_bundle.state.outlets["outlet_one"]
        assert set(res.mention_correlations) == {"Arden", "Briggs"}
        for rows in res.mention_correlations.values():
            assert [r.lag for r in rows] == list(range(6))
        assert set(res.topic_correlations) == set(res.coverage.topic_ids)

    def test_granger_covers_all_cells(self, run_bundle):
        res = run_bundle.state.outlets["outlet_one"]
        cells = {(g.topic, g.lag) for g in res.granger}
        expected = {(t, l) for t in res.coverage.topic_ids for l in range(6)}
        assert cells == expected

    def test_report_dict_is_deterministic(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        a = report_dict(run_pipeline(cfg))
        b = report_dict(run_pipeline(cfg))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_bundled_stoplist_and_lexicon_are_the_defaults(self, run_bundle, tmp_path):
        # run_bundle's config names neither; naming the bundled files gives the same report.
        data = Path(newslens.__file__).parent / "data"
        cfg = run_bundle.state.config
        assert (cfg.stopwords, cfg.lexicon) == (data / "stopwords_en.txt", data)
        path = build_run_dir(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("sentiment:\n  min_topic_mentions: 5\n")
        text += f"  lexicon: {json.dumps(str(data))}\n"
        text += f"stopwords: {json.dumps(str(data / 'stopwords_en.txt'))}\n"
        path.write_text(text, encoding="utf-8")
        named = run_pipeline(load_config(path))
        assert json.dumps(report_dict(named)) == json.dumps(report_dict(run_bundle))

    def test_runtime_not_in_report_dict(self, run_bundle):
        text = json.dumps(report_dict(run_bundle))
        assert "runtime" not in text
        assert run_bundle.runtime_seconds > 0.0

    def test_report_shape(self, run_bundle):
        d = report_dict(run_bundle)
        assert set(d) == {"versions", "rng", "settings", "polls", "outlets"}
        assert d["rng"] == "numpy-pcg64"
        assert {"newslens", "numpy", "scipy"} <= set(d["versions"])
        outlet = d["outlets"]["outlet_one"]
        assert outlet["topics"]["kept"] == [0, 1, 2]
        assert len(outlet["topics"]["keywords"][0]) == 10
        for cell in outlet["granger"]:
            assert cell["significant"] == (cell["p_value"] < 0.01)

    def test_settings_record_every_analysis_field(self, run_bundle):
        # Every PipelineConfig field but the paths, min_df and
        # keywords_per_topic among them, so runs that differ only there differ.
        cfg = run_bundle.state.config
        assert report_dict(run_bundle)["settings"] == {
            "seed": cfg.seed,
            "n_topics": cfg.n_topics,
            "drop_topics": list(cfg.drop_topics),
            "normalization": cfg.normalization,
            "min_df": cfg.min_df,
            "window_days": cfg.window_days,
            "max_lag": cfg.max_lag,
            "permutations": cfg.n_perm,
            "bootstrap_samples": cfg.bootstrap_b,
            "bootstrap_level": cfg.bootstrap_gamma,
            "membership_threshold": cfg.membership_threshold,
            "min_topic_mentions": cfg.min_topic_mentions,
            "keywords_per_topic": cfg.keywords_per_topic,
            "entities": [{"label": e.label, "aliases": list(e.aliases)} for e in cfg.entities],
        }

    def test_nmf_convergence_reported(self, run_bundle):
        topics = report_dict(run_bundle)["outlets"]["outlet_one"]["topics"]
        keys = list(topics)
        assert keys.index("nmf_converged") == keys.index("nmf_iterations") + 1
        assert topics["nmf_converged"] is run_bundle.state.outlets["outlet_one"].factors.converged
        assert topics["nmf_converged"] is True

    def test_readme_table_names_every_report_key(self, run_bundle):
        report = report_dict(run_bundle)
        # The run exercises every record type, a per-topic SB among them.
        assert any(report["outlets"]["outlet_one"]["sentiment_bias"]["per_topic"])
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### `report.json` keys", 1)[1].split("\n## ", 1)[0]
        table = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
        assert len(table) == len(set(table))
        assert set(table) == report_key_paths(report)


def report_key_paths(report: dict) -> set[str]:
    """Every key path of a report; keys that are outlet names, entity labels
    or topic ids read <outlet>, <entity> and <topic>, and [] marks list
    elements."""
    labels = {e["label"] for e in report["settings"]["entities"]}
    paths = set()

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                if path == "outlets":
                    key = "<outlet>"
                elif path.endswith("correlations.topics"):
                    key = "<topic>"
                elif key in labels:
                    key = "<entity>"
                sub = f"{path}.{key}" if path else key
                paths.add(sub)
                walk(item, sub)
        elif isinstance(value, list):
            for item in value:
                walk(item, f"{path}[]")

    walk(report, "")
    return paths


class TestParseOnce:
    @pytest.fixture()
    def config(self, tmp_path):
        return load_config(build_run_dir(tmp_path))

    def counted(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_topics_tokenize_each_article_once(self, config, monkeypatch):
        calls = self.counted(monkeypatch, vectorize, "tokenize")
        state = run_pipeline(config, through="topics").state
        assert len(calls) == state.outlets["outlet_one"].n_articles

    def test_sentiment_splits_each_article_once(self, config, monkeypatch):
        calls = self.counted(monkeypatch, corpus, "split_sentences")
        state = run_pipeline(config, through="sentiment").state
        assert len(calls) == state.outlets["outlet_one"].n_articles

    @pytest.mark.parametrize("body", [None, "Arden won, but Briggs, Jr. objected; Arden smiled."])
    def test_mention_reader_normalizes_each_sentence_once(self, tmp_path, monkeypatch, body):
        # Texts ``corpus`` and ``sentiment`` normalize while ``mention_records``
        # runs: each article's title and body once, before the sentence split;
        # its sentences are then matched, scored and split into clauses as
        # they are.  Each mention is scored from its lowered text (a sentence
        # naming one entity, else a clause naming it), with no normalization
        # of its own.
        path = build_run_dir(tmp_path)
        if body is not None:
            articles = tmp_path / "articles.jsonl"
            rows = [json.loads(line) for line in articles.read_text(encoding="utf-8").splitlines()]
            rows[0]["body"] = body
            articles.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        config = load_config(path)
        normalized, scored = [], []
        inside = []
        real_normalize = corpus.unicodedata.normalize
        real_reader = pipeline.mention_records
        real_tokens = sentiment._lowered_tokens

        def normalize(form, text):
            if inside:
                normalized.append(text)
            return real_normalize(form, text)

        def reader(*args, **kwargs):
            inside.append(True)
            try:
                return real_reader(*args, **kwargs)
            finally:
                inside.pop()

        def tokens(lowered):
            scored.append(lowered)
            return real_tokens(lowered)

        counting = SimpleNamespace(normalize=normalize)
        monkeypatch.setattr(corpus, "unicodedata", counting)
        monkeypatch.setattr(sentiment, "unicodedata", counting)
        monkeypatch.setattr(pipeline, "mention_records", reader)
        monkeypatch.setattr(sentiment, "_lowered_tokens", tokens)
        state = run_pipeline(config, through="sentiment").state

        texts, clauses, mentions = [], [], []
        for art in state.outlets["outlet_one"].articles:
            texts += [art.title, art.body]
            for sent in art.sentences:
                named = tuple(corpus.named_entities(sent, config.entities))
                if len(named) == 1:
                    mentions.append(sent)
                elif len(named) > 1:
                    parts = re.split(r"[,;]|\b(?:and|but|or|nor|yet|so)\b", sent)
                    parts = [c.strip() for c in parts if c.strip()]
                    clauses.extend(parts)
                    mentions.extend(c for c in parts for e in named if e.matches(c))
        assert len(clauses) == (4 if body is not None else 0)
        assert scored == [m.lower() for m in mentions]
        assert normalized == texts
        assert len(state.outlets["outlet_one"].mentions) == len(mentions)


class TestStageErrors:
    def test_ingest_failure_names_stage(self, tmp_path):
        cfg_path = build_run_dir(tmp_path)
        (tmp_path / "polls.csv").write_text("bad,header\n1,2\n", encoding="utf-8")
        cfg = load_config(cfg_path)
        with pytest.raises(PipelineError, match="ingest") as exc_info:
            run_pipeline(cfg)
        assert exc_info.value.stage == "ingest"
        assert isinstance(exc_info.value.cause, ValueError)

    def test_topics_failure_names_stage(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path), overrides={"n_topics": 500})
        with pytest.raises(PipelineError, match="topics") as exc_info:
            run_pipeline(cfg)
        assert exc_info.value.stage == "topics"

    def test_runner_names_the_stage_not_the_function(self, tmp_path, monkeypatch):
        # A wrapper patched over stage_topics keeps the stage's name.
        boom = ValueError("boom")

        def patched(state):
            raise boom

        monkeypatch.setattr("newslens.pipeline.stage_topics", patched)
        with pytest.raises(PipelineError, match="topics") as exc_info:
            run_pipeline(load_config(build_run_dir(tmp_path)))
        assert exc_info.value.stage == "topics"
        assert exc_info.value.cause is boom

    def test_constant_series_named_by_outlet_label_and_lag(self, tmp_path):
        # An outlet that never names Briggs has a constant mention series.
        cfg_path = build_run_dir(tmp_path)
        articles = tmp_path / "articles.jsonl"
        text = articles.read_text(encoding="utf-8").replace("Briggs", "Arden")
        articles.write_text(text, encoding="utf-8")
        with pytest.raises(PipelineError, match="correlate") as exc_info:
            run_pipeline(load_config(cfg_path))
        assert "'outlet_one/mentions_Briggs' at lag 0: correlation undefined" in str(exc_info.value)

    def test_max_lag_too_long_for_spread_fails_at_ingest(self, tmp_path, monkeypatch):
        cfg_path = build_run_dir(tmp_path)
        n = len(run_pipeline(load_config(cfg_path), through="ingest").state.spread)
        half = (n + 1) // 2  # smallest max_lag with max_lag >= n / 2
        # The largest allowed max_lag passes ingest.
        run_pipeline(load_config(cfg_path, overrides={"max_lag": half - 1}), through="ingest")
        monkeypatch.setattr(
            "newslens.pipeline.stage_topics", lambda state: pytest.fail("topics ran")
        )
        cfg = load_config(cfg_path, overrides={"max_lag": half})
        with pytest.raises(PipelineError, match="ingest") as exc_info:
            run_pipeline(cfg)
        assert exc_info.value.stage == "ingest"
        assert str(exc_info.value.cause) == (
            f"analysis.max_lag (--max-lag) is {half}, too large for the {n}-day "
            f"poll spread of {cfg.polls}; it must be at most {half - 1}"
        )

    def test_max_lag_too_long_for_article_span_fails_at_ingest(self, tmp_path, monkeypatch):
        cfg_path = build_run_dir(tmp_path, days=45, article_days=20)
        run_pipeline(load_config(cfg_path, overrides={"max_lag": 9}), through="ingest")
        monkeypatch.setattr(
            "newslens.pipeline.stage_topics", lambda state: pytest.fail("topics ran")
        )
        cfg = load_config(cfg_path, overrides={"max_lag": 10})
        with pytest.raises(PipelineError, match="ingest") as exc_info:
            run_pipeline(cfg)
        assert str(exc_info.value.cause) == (
            "analysis.max_lag (--max-lag) is 10, too large for the 20-day article span "
            f"of outlet 'outlet_one' in {cfg.articles['outlet_one']}; it must be at most 9"
        )

    def test_stage_prefix_composes(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        state = RunState(config=cfg)
        stage_ingest(state)
        assert state.spread is not None
        assert state.outlets["outlet_one"].factors is None
        stage_topics(state)
        assert state.outlets["outlet_one"].factors is not None


# OutletResult fields each stage fills
STAGE_FIELDS = {
    "topics": ("factors", "keywords", "coverage", "agenda"),
    "sentiment": (
        "mention_series", "mentions", "sb_overall", "sb_daily", "sb_by_topic", "sb_bootstrap",
    ),
    "correlate": ("mention_correlations", "topic_correlations"),
    "causality": ("granger",),
}


class TestThrough:
    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        return load_config(build_run_dir(tmp_path_factory.mktemp("through")))

    @pytest.mark.parametrize("through", STAGES)
    def test_prefix_leaves_later_fields_empty(self, config, through):
        state = run_pipeline(config, through).state
        assert state.spread is not None
        res = state.outlets["outlet_one"]
        done = STAGES[: STAGES.index(through) + 1]
        for stage, names in STAGE_FIELDS.items():
            for name in names:
                value = getattr(res, name)
                filled = value is not None and not (isinstance(value, (list, dict)) and not value)
                assert filled == (stage in done), (through, name)

    def test_unknown_stage_rejected(self, config):
        with pytest.raises(ValueError, match="unknown stage 'bogus'"):
            run_pipeline(config, "bogus")


class TestEmitOutputs:
    def test_files_and_manifest(self, run_bundle, tmp_path):
        out = tmp_path / "out"
        manifest = emit_outputs(run_bundle, out)
        expected = {
            "report.json",
            "series/spread.csv",
            "series/mentions_outlet_one.csv",
            "series/coverage_outlet_one.csv",
            "series/sentiment_bias_outlet_one.csv",
            "charts/spread.svg",
            "charts/mentions_outlet_one.svg",
            "charts/coverage_outlet_one.svg",
            "charts/agenda_outlet_one.svg",
            "charts/sentiment_bias_outlet_one.svg",
        }
        listed = {f["path"] for f in manifest["files"]}
        assert listed == expected
        for f in manifest["files"]:
            p = out / f["path"]
            assert p.is_file()
            assert p.stat().st_size == f["bytes"]
        assert manifest["runtime_seconds"] == run_bundle.runtime_seconds
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_hashes_match_content(self, run_bundle, tmp_path):
        import hashlib

        out = tmp_path / "out"
        manifest = emit_outputs(run_bundle, out)
        for f in manifest["files"]:
            digest = hashlib.sha256((out / f["path"]).read_bytes()).hexdigest()
            assert digest == f["sha256"]

    def test_two_runs_byte_identical(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        m1 = emit_outputs(run_pipeline(cfg), tmp_path / "out1")
        m2 = emit_outputs(run_pipeline(cfg), tmp_path / "out2")
        r1 = (tmp_path / "out1" / "report.json").read_bytes()
        r2 = (tmp_path / "out2" / "report.json").read_bytes()
        assert r1 == r2
        assert m1["files"] == m2["files"]

    def test_csv_values_round_trip(self, run_bundle, tmp_path):
        out = tmp_path / "out"
        emit_outputs(run_bundle, out)
        spread = run_bundle.state.spread
        lines = (out / "series" / "spread.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "date"
        first_row = lines[1].split(",")
        assert first_row[0] == spread.start.isoformat()
        assert float(first_row[1]) == spread.values[0]

    def test_csv_blank_outside_span(self, run_bundle, tmp_path):
        out = tmp_path / "out"
        emit_outputs(run_bundle, out)
        res = run_bundle.state.outlets["outlet_one"]
        sb = res.sb_daily
        lines = (out / "series" / "sentiment_bias_outlet_one.csv").read_text().splitlines()
        assert len(lines) == 1 + len(sb)

    def test_outlet_name_slugged(self, run_bundle, tmp_path):
        import dataclasses

        renamed = dict(run_bundle.state.outlets)
        renamed["Outlet One!"] = renamed.pop("outlet_one")
        patched_state = dataclasses.replace(run_bundle.state)
        patched_state.outlets = renamed
        bundle = dataclasses.replace(run_bundle, state=patched_state)
        manifest = emit_outputs(bundle, tmp_path / "out")
        listed = {f["path"] for f in manifest["files"]}
        assert "series/mentions_outlet_one.csv" in listed

    @pytest.mark.parametrize("where", ["report", "manifest"])
    def test_non_finite_value_rejected(self, tmp_path, where):
        bundle = run_pipeline(load_config(build_run_dir(tmp_path)), through="sentiment")
        if where == "report":
            res = bundle.state.outlets["outlet_one"]
            res.sb_bootstrap = dataclasses.replace(res.sb_bootstrap, stderr=float("nan"))
        else:
            bundle.runtime_seconds = float("nan")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="JSON"):
            emit_outputs(bundle, out)
        assert not (out / "report.json").exists()
        assert not (out / "manifest.json").exists()

    @staticmethod
    def snapshot(out) -> dict:
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_failed_render_keeps_previous_run(self, run_bundle, tmp_path, monkeypatch):
        import newslens.report as report_mod

        out = tmp_path / "out"
        emit_outputs(run_bundle, out)
        before = self.snapshot(out)
        assert len(before) == 11

        def boom(*args, **kwargs):
            raise RuntimeError("chart failure")

        monkeypatch.setattr(report_mod, "line_chart", boom)
        with pytest.raises(RuntimeError, match="chart failure"):
            emit_outputs(run_bundle, out)
        assert self.snapshot(out) == before
        assert not list(out.glob(".emit-*"))

    def test_failed_write_keeps_previous_run(self, run_bundle, tmp_path, monkeypatch):
        import pathlib

        out = tmp_path / "out"
        emit_outputs(run_bundle, out)
        before = self.snapshot(out)
        real_write = pathlib.Path.write_bytes
        calls = []

        def fail_third(self, data):
            calls.append(self)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_write(self, data)

        monkeypatch.setattr(pathlib.Path, "write_bytes", fail_third)
        with pytest.raises(OSError, match="disk full"):
            emit_outputs(run_bundle, out)
        assert len(calls) == 3
        assert self.snapshot(out) == before
        assert not list(out.glob(".emit-*"))

    def test_no_staging_left_and_other_files_kept(self, run_bundle, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "config.yaml").write_text("seed: 1\n", encoding="utf-8")
        emit_outputs(run_bundle, out)
        emit_outputs(run_bundle, out)
        assert not list(out.glob(".emit-*"))
        assert (out / "config.yaml").read_text(encoding="utf-8") == "seed: 1\n"
        assert set(self.snapshot(out)) == {"config.yaml", "manifest.json"} | {
            f["path"] for f in json.loads((out / "manifest.json").read_text())["files"]
        }

    def test_partial_outputs_removed_on_failure(self, run_bundle, tmp_path, monkeypatch):
        import newslens.report as report_mod

        def boom(*args, **kwargs):
            raise RuntimeError("chart failure")

        monkeypatch.setattr(report_mod, "line_chart", boom)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="chart failure"):
            emit_outputs(run_bundle, out)
        assert not (out / "report.json").exists()
        assert not list((out / "series").glob("*.csv"))


def test_causality_gives_every_outlet_the_same_cells(tmp_path):
    config = generate_fixture(tmp_path, 11)["config"]
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["articles"] = {f"outlet{k}": "articles.jsonl" for k in range(3)}
    raw["window_days"] = 7
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    state = run_pipeline(load_config(config), through="topics").state
    stage_causality(state)
    cells = [(g.topic, g.lag) for g in state.outlets["outlet0"].granger]
    assert cells and all(
        [(g.topic, g.lag) for g in res.granger] == cells for res in state.outlets.values()
    )


# Runs one pipeline in a fresh interpreter and prints a JSON result.
# argv: config, overrides (JSON), fault ("none", "kill" or "read"), output
# directory.  "kill" kills the forked topics child with SIGKILL; "read"
# makes mention reading fail.  A run with "none" that succeeds also
# pickles the topic fields to <output>.pkl, counts writeable arrays and
# counts forks of a run through "topics".
WORKER_RUN = """
import json, os, pickle, signal, sys
import newslens.pipeline as pipeline
from newslens.config import load_config
from newslens.report import emit_outputs

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
config, overrides, fault, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3], sys.argv[4]
parent, stage_topics = os.getpid(), pipeline.stage_topics

def topics_killed_in_child(state):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    stage_topics(state)

def read_fails(*args):
    raise ValueError("mention reading failed")

if fault == "kill":
    pipeline.stage_topics = topics_killed_in_child
elif fault == "read":
    pipeline.mention_records = read_fails
cfg = load_config(config, overrides)
result = {}
try:
    bundle = pipeline.run_pipeline(cfg)
except pipeline.PipelineError as exc:
    result["error"] = [exc.stage, str(exc)]
else:
    emit_outputs(bundle, out)
    outlets = list(bundle.state.outlets.values())
    if fault == "none":
        with open(out + ".pkl", "wb") as fh:
            pickle.dump([(r.factors, r.keywords, r.coverage, r.agenda) for r in outlets], fh)
        series = [bundle.state.spread] + [
            s for r in outlets
            for s in (*r.coverage.topics, *r.coverage.raw, *r.mention_series.values(), r.sb_daily)
        ]
        arrays = [a for r in outlets for a in (r.factors.H, r.factors.W, r.factors.errors)]
        result["writeable"] = sum(a.flags.writeable for a in arrays + [s.values for s in series])
result["forks"] = len(forks)
try:
    os.waitpid(-1, os.WNOHANG)
    result["child_left"] = True
except ChildProcessError:
    result["child_left"] = False
if fault == "none" and "error" not in result:
    forks.clear()
    pipeline.run_pipeline(cfg, through="topics")
    result["forks_through_topics"] = len(forks)
print(json.dumps(result))
"""


def python_env(pinned: bool) -> dict:
    """The environment for a fresh interpreter importing this checkout's newslens."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(pipeline.__file__).parent.parent)
    if pinned:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same values, arrays compared bit for bit."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the topics worker needs os.fork and two CPUs",
)
class TestTopicsWorker:
    # With BLAS pinned, run_pipeline fits topics in a forked child while it
    # reads mentions; on one CPU it runs the stages in turn.

    @pytest.fixture()
    def config(self, tmp_path):
        # Two outlets, the second a shorter copy of the first.
        path = build_run_dir(tmp_path)
        rows = (tmp_path / "articles.jsonl").read_text(encoding="utf-8").splitlines()
        (tmp_path / "articles_two.jsonl").write_text(
            "".join(line.replace("outlet_one", "outlet_two") + "\n" for line in rows[:-15]),
            encoding="utf-8",
        )
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace(
                "  outlet_one: articles.jsonl\n",
                "  outlet_one: articles.jsonl\n  outlet_two: articles_two.jsonl\n",
            ),
            encoding="utf-8",
        )
        return path

    @staticmethod
    def run_worker(config, out, overrides=None, fault="none") -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", WORKER_RUN, str(config), json.dumps(overrides or {}), fault,
             str(out)],
            capture_output=True, text=True, env=python_env(pinned=True), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @staticmethod
    def inline(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def test_worker_and_inline_runs_agree(self, config, tmp_path, monkeypatch):
        worker = self.run_worker(config, tmp_path / "worker")
        assert worker == {
            "writeable": 0, "forks": 1, "child_left": False, "forks_through_topics": 0
        }
        self.inline(monkeypatch)
        bundle = run_pipeline(load_config(config))
        emit_outputs(bundle, tmp_path / "inline")
        report = (tmp_path / "inline" / "report.json").read_bytes()
        assert (tmp_path / "worker" / "report.json").read_bytes() == report
        # The file was written by the run above, in this test.
        fields = pickle.loads((tmp_path / "worker.pkl").read_bytes())
        outlets = list(bundle.state.outlets.values())
        assert len(fields) == len(outlets) == 2
        assert same(fields, [(r.factors, r.keywords, r.coverage, r.agenda) for r in outlets])

    def test_killed_child_falls_back_to_inline(self, config, tmp_path):
        normal = self.run_worker(config, tmp_path / "normal")
        killed = self.run_worker(config, tmp_path / "killed", fault="kill")
        assert normal["forks"] == killed["forks"] == 1
        assert not normal["child_left"] and not killed["child_left"]
        report = (tmp_path / "normal" / "report.json").read_bytes()
        assert (tmp_path / "killed" / "report.json").read_bytes() == report

    @pytest.mark.parametrize(
        "overrides, fault, stage",
        [
            ({"n_topics": 500}, "none", "topics"),
            ({"n_topics": 500}, "read", "topics"),  # both halves fail; topics wins
            ({}, "read", "sentiment"),
        ],
    )
    def test_failures_name_the_stage(self, config, tmp_path, monkeypatch, overrides, fault, stage):
        worker = self.run_worker(config, tmp_path / "out", overrides, fault)
        assert worker["forks"] == 1 and not worker["child_left"]
        self.inline(monkeypatch)
        if fault == "read":
            monkeypatch.setattr(
                pipeline, "mention_records", Mock(side_effect=ValueError("mention reading failed"))
            )
        with pytest.raises(PipelineError) as exc_info:
            run_pipeline(load_config(config, overrides))
        assert exc_info.value.stage == stage
        assert worker["error"] == [stage, str(exc_info.value)]

    def test_child_warnings_reach_stderr_once_ahead_of_sentiment(self, config, tmp_path):
        # An article with no vocabulary term makes the topics stage warn, and
        # a labels file covering one sentence makes mention reading warn.
        with open(tmp_path / "articles.jsonl", "a", encoding="utf-8") as fh:
            row = article_row("novocab", day="2021-03-10", title="Quorn", body="Arden wobbles.")
            fh.write(json.dumps(row) + "\n")
        (tmp_path / "stop.txt").write_text("arden\nbriggs\nthe\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text(
            "article_id,sentence_index,class\nd000t0,1,positive\n", encoding="utf-8"
        )
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace("sentiment:\n", "sentiment:\n  labels: labels.csv\n")
            + "stopwords: stop.txt\n",
            encoding="utf-8",
        )
        # The CLI pins BLAS itself, so it forks with no thread variable set.
        code = (
            "import os, sys\n"
            "forks = []\n"
            "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            "from newslens.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('forks', len(forks))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "sentiment", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=python_env(pinned=False), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "forks 1"
        lines = proc.stderr.splitlines()
        no_vocab = [i for i, line in enumerate(lines) if "article novocab has no vocabulary" in line]
        unlabeled = [i for i, line in enumerate(lines) if "no precomputed label" in line]
        assert len(no_vocab) == 1 and len(unlabeled) == 2  # one per outlet
        assert no_vocab[0] < unlabeled[0]
