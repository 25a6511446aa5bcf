import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import newslens
from newslens.cli import BLAS_THREAD_VARS, main
from newslens.config import load_config
from newslens.pipeline import run_pipeline

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
        assert "ingest" in err
        assert "failed: analysis.max_lag (--max-lag) is 40, too large for the " in err

    def test_max_lag_beyond_article_span_exits_2(self, tmp_path, capsys):
        config = build_run_dir(tmp_path, days=45, article_days=20)
        rc = invoke("validate", "--config", str(config), "--max-lag", "10")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stage 'ingest' failed: analysis.max_lag (--max-lag) is 10" in captured.err
        assert "20-day article span of outlet 'outlet_one'" in captured.err

    def test_dropping_every_topic_exits_2_before_any_stage(self, run_dir, capsys):
        config = run_dir / "config.yaml"
        rc = invoke("validate", "--config", str(config), "--drop-topics", "0,1,2")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {config}: topics.drop (--drop-topics) drops all 3 topics; "
            "at least one must be kept\n"
        )


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
        # Results stay keyed by topic id, also when dropping topic 0 moves
        # every kept topic's position off its id.
        for drop, kept in ((2, [0, 1]), (0, [1, 2])):
            out = tmp_path / f"dropped_{drop}"
            rc = invoke(
                "run",
                "--config", str(run_dir / "config.yaml"),
                "--out", str(out),
                "--drop-topics", str(drop),
            )
            assert rc == 0
            report = json.loads((out / "report.json").read_text())
            assert report["settings"]["drop_topics"] == [drop]
            outlet = report["outlets"]["outlet_one"]
            assert outlet["topics"]["kept"] == kept
            assert sorted(outlet["correlations"]["topics"]) == [str(t) for t in kept]
            assert [(g["topic"], g["lag"]) for g in outlet["granger"]] == [
                (t, lag) for t in kept for lag in range(report["settings"]["max_lag"] + 1)
            ]

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

    def test_negative_seed_names_config(self, run_dir, capsys):
        config = run_dir / "config.yaml"
        rc = invoke("validate", "--config", str(config), "--seed", "-1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {config}: seed must be >= 0, got -1\n"

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

    def test_correlate_without_enough_overlap_writes_outputs(self, run_dir, capsys):
        # Polls moved 40 days earlier overlap the 45 article days on 5 only.
        polls = run_dir / "polls.csv"
        header, *rows = polls.read_text(encoding="utf-8").splitlines()
        moved = [
            f"{date.fromisoformat(r[:10]) - timedelta(days=40)}{r[10:]}" for r in rows
        ]
        polls.write_text("\n".join([header, *moved]) + "\n", encoding="utf-8")
        rc = invoke("correlate", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            f"outlet outlet_one {name}: no lag with at least 10 overlapping days"
            for name in ("mentions[Arden]", "mentions[Briggs]", "topic 0", "topic 1", "topic 2")
        ]
        assert lines[5].startswith("wrote ")
        report = json.loads((run_dir / "out" / "report.json").read_text())
        correlations = report["outlets"]["outlet_one"]["correlations"]
        assert all(not cells for cells in correlations["mentions"].values())

    def test_run_without_enough_overlap_writes_outputs(self, run_dir, capsys, caplog):
        # As above: no lag of the differenced series has 20 overlapping days,
        # so every slope-test cell is skipped and the run still completes.
        polls = run_dir / "polls.csv"
        header, *rows = polls.read_text(encoding="utf-8").splitlines()
        moved = [
            f"{date.fromisoformat(r[:10]) - timedelta(days=40)}{r[10:]}" for r in rows
        ]
        polls.write_text("\n".join([header, *moved]) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="newslens.tsstats"):
            rc = invoke("run", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == f"wrote 11 files to {run_dir / 'out'}"
        report = json.loads((run_dir / "out" / "report.json").read_text())
        assert report["outlets"]["outlet_one"]["granger"] == []
        skips = [r.message for r in caplog.records if "fewer than 20" in r.message]
        assert skips == [
            "lags 0-5 skipped for series 'outlet_one/topic_0' (1 of 3 over the same days): "
            "fewer than 20 overlapping days"
        ]

    def test_causality_prints_cells(self, run_dir, capsys):
        rc = invoke("causality", "--config", str(run_dir / "config.yaml"))
        assert rc == 0
        assert "significant (topic, lag) cells" in capsys.readouterr().out


class TestOutletOrder:
    # Outlets come out in name order, whatever order the config lists them in.
    NAMES = ["outlet_a", "outlet_b"]

    @staticmethod
    def write_config(root, names) -> str:
        """A config over the outlets built under ``root``, listed in the order of ``names``."""
        text = (root / "outlet_a" / "config.yaml").read_text(encoding="utf-8")
        listed = "".join(f"  {name}: {name}/articles.jsonl\n" for name in names)
        path = root / f"config_{'_'.join(names)}.yaml"
        path.write_text(
            text.replace("  outlet_a: articles.jsonl\n", listed)
            .replace("polls: polls.csv", "polls: outlet_a/polls.csv"),
            encoding="utf-8",
        )
        return str(path)

    @pytest.fixture()
    def config(self, tmp_path):
        for days, name in zip([45, 40], self.NAMES):
            (tmp_path / name).mkdir()
            build_run_dir(tmp_path / name, days=days, outlet=name)
        return self.write_config(tmp_path, self.NAMES[::-1])

    def test_ingest_orders_outlets_by_name(self, config):
        cfg = load_config(config)
        assert list(cfg.articles) == self.NAMES[::-1]
        assert list(run_pipeline(cfg, through="ingest").state.outlets) == self.NAMES

    @pytest.mark.parametrize("command", ["validate", "causality"])
    def test_commands_print_outlets_in_name_order(self, config, tmp_path, capsys, command):
        assert invoke(command, "--config", config, "--out", str(tmp_path / "out")) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = [line.split()[1].rstrip(":") for line in lines if line.startswith("outlet ")]
        assert printed == self.NAMES

    def test_outputs_do_not_depend_on_listed_order(self, config, tmp_path):
        in_name_order = self.write_config(tmp_path, self.NAMES)
        manifests = []
        for cfg, out in [(config, tmp_path / "listed"), (in_name_order, tmp_path / "sorted")]:
            assert invoke("run", "--config", cfg, "--out", str(out)) == 0
            manifests.append(json.loads((out / "manifest.json").read_text())["files"])
        assert manifests[0] == manifests[1]
        report = (tmp_path / "listed" / "report.json").read_bytes()
        assert report == (tmp_path / "sorted" / "report.json").read_bytes()


class TestBlasThreads:
    # The CLI pins every BLAS and OpenMP pool to one thread before numpy
    # loads, unless the environment already sizes the pool.
    @pytest.mark.parametrize("given", [None, "2"])
    def test_pools_pinned_unless_set(self, given):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(newslens.__file__).parent.parent)
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = "import os, newslens.cli\nprint(*map(os.environ.get, newslens.cli.BLAS_THREAD_VARS))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        expected = {v: "1" for v in BLAS_THREAD_VARS}
        if given is not None:
            expected["OPENBLAS_NUM_THREADS"] = given
        assert proc.stdout.split() == list(expected.values())


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

    def test_flags_set_spec_fields(self, tmp_path):
        fix = tmp_path / "fix"
        rc = invoke(
            "fixture", "--out", str(fix), "--seed", "3", "--days", "40", "--lag", "5",
            "--beta", "500", "--noise-sigma", "0.2",
        )
        assert rc == 0
        truth = json.loads((fix / "ground_truth.json").read_text())
        assert truth["causal"] == {"topic": 0, "lag": 5, "beta": 500.0, "noise_sigma": 0.2}

    def test_bad_spec_rejected(self, tmp_path, capsys):
        rc = invoke(
            "fixture", "--out", str(tmp_path / "f"), "--seed", "1",
            "--days", "20", "--lag", "15",
        )
        assert rc == 2
        assert "lag" in capsys.readouterr().err
