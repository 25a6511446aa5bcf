import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import newslens.corpus as corpus
import newslens.pipeline as pipeline
import newslens.sentiment as sentiment
import newslens.vectorize as vectorize
from newslens.config import load_config
from newslens.pipeline import (
    STAGES,
    PipelineError,
    run_pipeline,
    stage_ingest,
    stage_topics,
    RunState,
)
from newslens.report import emit_outputs

from conftest import build_run_dir


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

    def test_to_dict_is_deterministic(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        a = run_pipeline(cfg).to_dict()
        b = run_pipeline(cfg).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_runtime_not_in_report_dict(self, run_bundle):
        text = json.dumps(run_bundle.to_dict())
        assert "runtime" not in text
        assert run_bundle.runtime_seconds > 0.0

    def test_report_shape(self, run_bundle):
        d = run_bundle.to_dict()
        assert set(d) == {"versions", "rng", "settings", "polls", "outlets"}
        assert d["rng"] == "numpy-pcg64"
        assert {"newslens", "numpy", "scipy"} <= set(d["versions"])
        outlet = d["outlets"]["outlet_one"]
        assert outlet["topics"]["kept"] == [0, 1, 2]
        assert len(outlet["topics"]["keywords"][0]) == 10
        for cell in outlet["granger"]:
            assert cell["significant"] == (cell["p_value"] < 0.01)

    def test_nmf_convergence_reported(self, run_bundle):
        topics = run_bundle.to_dict()["outlets"]["outlet_one"]["topics"]
        keys = list(topics)
        assert keys.index("nmf_converged") == keys.index("nmf_iterations") + 1
        assert topics["nmf_converged"] is run_bundle.state.outlets["outlet_one"].factors.converged
        assert topics["nmf_converged"] is True


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
        # Texts ``corpus`` normalizes while ``mention_records`` runs; the
        # scorer's own tokenize is counted apart.
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
        real_score = sentiment.score_sentence

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

        def score(text, lexicon):
            scored.append(text)
            return real_score(text, lexicon)

        monkeypatch.setattr(corpus, "unicodedata", SimpleNamespace(normalize=normalize))
        monkeypatch.setattr(pipeline, "mention_records", reader)
        monkeypatch.setattr(sentiment, "score_sentence", score)
        state = run_pipeline(config, through="sentiment").state

        expected, multi = [], 0
        for art in state.articles["outlet_one"]:
            for sent in art.sentences:
                expected.append(sent)
                if len(tuple(corpus.named_entities(sent, config.entities))) > 1:
                    multi += 1
                    clauses = re.split(r"[,;]|\b(?:and|but|or|nor|yet|so)\b", sent)
                    expected.extend(c.strip() for c in clauses if c.strip())
        expected.extend(scored)  # score_sentence tokenizes each scored clause once
        assert multi == (body is not None)
        assert sorted(normalized) == sorted(expected)
        assert len(scored) == len(state.outlets["outlet_one"].mentions)


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
        assert f"analysis.max_lag {half} too large for a poll spread of {n} days" in str(
            exc_info.value
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
