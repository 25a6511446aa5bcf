import json

import pytest

from newslens.cli import main

from conftest import build_run_dir


@pytest.fixture()
def run_dir(tmp_path):
    build_run_dir(tmp_path)
    return tmp_path


def invoke(*argv) -> int:
    return main(list(argv))


class TestValidate:
    def test_success(self, run_dir, capsys):
        rc = invoke("validate", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "outlet_one" in out
        assert not (run_dir / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = invoke("validate", "--config", str(tmp_path / "none.yaml"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, run_dir, capsys):
        (run_dir / "config.yaml").write_text("seed: [1, 2\n", encoding="utf-8")
        rc = invoke("validate", "--config", str(run_dir / "config.yaml"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_broken_polls(self, run_dir, capsys):
        (run_dir / "polls.csv").write_text("date,pollster,pct_a,pct_b\nbad\n")
        rc = invoke("validate", "--config", str(run_dir / "config.yaml"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "ingest" in err

    def test_outlets_sharing_a_file_tag_exit_2(self, run_dir, capsys):
        config = run_dir / "config.yaml"
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace("  outlet_one: articles.jsonl\n",
                         "  Fox News: articles.jsonl\n  fox_news: articles.jsonl\n"),
            encoding="utf-8",
        )
        rc = invoke("validate", "--config", str(config))
        assert rc == 2
        err = capsys.readouterr().err
        assert "'Fox News' and 'fox_news'" in err

    def test_max_lag_beyond_poll_span_exits_2(self, run_dir, capsys):
        rc = invoke("validate", "--config", str(run_dir / "config.yaml"), "--max-lag", "40")
        assert rc == 2
        err = capsys.readouterr().err
        assert "ingest" in err and "analysis.max_lag 40" in err


class TestRun:
    def test_full_run_writes_outputs(self, run_dir, capsys):
        rc = invoke("run", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "runtime" in out
        report = json.loads((run_dir / "out" / "report.json").read_text())
        assert "outlets" in report
        assert (run_dir / "out" / "manifest.json").is_file()

    def test_out_override(self, run_dir, tmp_path):
        other = tmp_path / "elsewhere"
        rc = invoke("run", "--config", str(run_dir / "config.yaml"), "--out", str(other))
        assert rc == 0
        assert (other / "report.json").is_file()

    def test_seed_override_changes_report(self, run_dir, tmp_path):
        cfg = str(run_dir / "config.yaml")
        assert invoke("run", "--config", cfg, "--out", str(tmp_path / "a")) == 0
        assert invoke("run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99") == 0
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert ra["settings"]["seed"] == 5
        assert rb["settings"]["seed"] == 99
        assert ra != rb

    def test_drop_topics_flag(self, run_dir, tmp_path):
        rc = invoke(
            "run",
            "--config", str(run_dir / "config.yaml"),
            "--out", str(tmp_path / "dropped"),
            "--drop-topics", "2",
        )
        assert rc == 0
        report = json.loads((tmp_path / "dropped" / "report.json").read_text())
        assert report["settings"]["drop_topics"] == [2]
        assert report["outlets"]["outlet_one"]["topics"]["kept"] == [0, 1]

    def test_invalid_override_rejected(self, run_dir, capsys):
        rc = invoke("run", "--config", str(run_dir / "config.yaml"), "--n-topics", "1")
        assert rc == 2
        assert "n_topics" in capsys.readouterr().err

    def test_out_of_range_override_names_config(self, run_dir, capsys):
        config = run_dir / "config.yaml"
        rc = invoke("validate", "--config", str(config), "--max-lag", "-1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {config}: max_lag must be >= 0, got -1\n"

    def test_malformed_drop_topics_names_flag(self, run_dir, capsys):
        with pytest.raises(SystemExit) as exc_info:
            invoke("validate", "--config", str(run_dir / "config.yaml"), "--drop-topics", "a")
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --drop-topics: expected comma-separated topic ids, got 'a'" in err


class TestStageCommands:
    def test_causality_and_run_write_identical_reports(self, run_dir, tmp_path):
        cfg = str(run_dir / "config.yaml")
        assert invoke("causality", "--config", cfg, "--out", str(tmp_path / "c")) == 0
        assert invoke("run", "--config", cfg, "--out", str(tmp_path / "r")) == 0
        report = (tmp_path / "c" / "report.json").read_bytes()
        assert report == (tmp_path / "r" / "report.json").read_bytes()

    def test_topics_prints_keywords(self, run_dir, capsys):
        rc = invoke("topics", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "reconstruction error" in out
        assert "iterations (converged)" in out
        assert "topic 0" in out

    def test_sentiment_prints_sb(self, run_dir, capsys):
        rc = invoke("sentiment", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        assert "SB" in capsys.readouterr().out

    def test_sentiment_prints_configured_ci_level(self, run_dir, capsys):
        cfg = run_dir / "config.yaml"
        text = cfg.read_text(encoding="utf-8")
        assert "level: 0.95" in text
        cfg.write_text(text.replace("level: 0.95", "level: 0.9"), encoding="utf-8")
        assert invoke("sentiment", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "(90% CI " in out
        assert "95% CI" not in out

    def test_correlate_prints_rho(self, run_dir, capsys):
        rc = invoke("correlate", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        assert "max |rho|" in capsys.readouterr().out

    def test_causality_prints_cells(self, run_dir, capsys):
        rc = invoke("causality", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        assert "significant (topic, lag) cells" in capsys.readouterr().out


class TestFixtureCommand:
    def test_generates_runnable_fixture(self, tmp_path, capsys):
        fix = tmp_path / "fix"
        rc = invoke(
            "fixture", "--out", str(fix), "--seed", "11",
            "--days", "40", "--lag", "5",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "config" in out
        assert (fix / "config.yaml").is_file()
        rc = invoke("validate", "--config", str(fix / "config.yaml"))
        assert rc == 0

    def test_bad_spec_rejected(self, tmp_path, capsys):
        rc = invoke(
            "fixture", "--out", str(tmp_path / "f"), "--seed", "1",
            "--days", "20", "--lag", "15",
        )
        assert rc == 2
        assert "lag" in capsys.readouterr().err
