import json
import re
from pathlib import Path

import pytest
import yaml

from newslens.config import PipelineConfig, load_config, outlet_slug
from newslens.corpus import EntitySpec

from conftest import article_row, write_articles


def base_mapping(tmp_path) -> dict:
    write_articles(tmp_path / "articles.jsonl", [article_row("a1")])
    (tmp_path / "polls.csv").write_text(
        "date,pollster,pct_a,pct_b\n2021-03-01,x,50,40\n", encoding="utf-8"
    )
    return {
        "articles": {"outlet_one": "articles.jsonl"},
        "polls": "polls.csv",
        "entities": [
            {"label": "Arden", "aliases": ["Arden"]},
            {"label": "Briggs", "aliases": ["Briggs"]},
        ],
        "seed": 7,
        "output": "out",
    }


def write_yaml(tmp_path, mapping) -> Path:
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return p


class TestLoadConfig:
    def test_yaml_round_trip_with_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, base_mapping(tmp_path)))
        assert cfg.seed == 7
        assert cfg.n_topics == 6
        assert cfg.window_days == 7
        assert cfg.normalization == "per_day_share"
        assert cfg.entities[0].label == "Arden"
        assert cfg.articles["outlet_one"] == tmp_path / "articles.jsonl"
        assert cfg.out_dir == tmp_path / "out"

    def test_json_accepted(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(base_mapping(tmp_path)), encoding="utf-8")
        cfg = load_config(p)
        assert cfg.seed == 7

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        mapping = base_mapping(sub)
        cfg = load_config(write_yaml(sub, mapping))
        assert cfg.polls == sub / "polls.csv"

    def test_absolute_paths_kept(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["polls"] = str(tmp_path / "polls.csv")
        cfg = load_config(write_yaml(tmp_path, mapping))
        assert cfg.polls == tmp_path / "polls.csv"

    def test_nested_sections_parsed(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["topics"] = {
            "count": 4,
            "drop": [1],
            "normalization": "per_topic_area",
            "min_df": 3,
            "keywords": 5,
        }
        mapping["analysis"] = {"max_lag": 12, "permutations": 500}
        mapping["bootstrap"] = {"samples": 2000, "level": 0.9}
        mapping["sentiment"] = {"membership_threshold": 0.5, "min_topic_mentions": 10}
        mapping["window_days"] = 3
        cfg = load_config(write_yaml(tmp_path, mapping))
        assert cfg.n_topics == 4
        assert cfg.drop_topics == (1,)
        assert cfg.normalization == "per_topic_area"
        assert cfg.min_df == 3
        assert cfg.keywords_per_topic == 5
        assert cfg.max_lag == 12
        assert cfg.n_perm == 500
        assert cfg.bootstrap_b == 2000
        assert cfg.bootstrap_gamma == 0.9
        assert cfg.membership_threshold == 0.5
        assert cfg.min_topic_mentions == 10
        assert cfg.window_days == 3

    def test_overrides_replace_values(self, tmp_path):
        p = write_yaml(tmp_path, base_mapping(tmp_path))
        cfg = load_config(p, overrides={"seed": 99, "n_topics": 8})
        assert cfg.seed == 99
        assert cfg.n_topics == 8

    def test_none_overrides_ignored(self, tmp_path):
        p = write_yaml(tmp_path, base_mapping(tmp_path))
        cfg = load_config(p, overrides={"seed": None})
        assert cfg.seed == 7

    def test_missing_required_key(self, tmp_path):
        mapping = base_mapping(tmp_path)
        del mapping["seed"]
        with pytest.raises(ValueError, match="seed"):
            load_config(write_yaml(tmp_path, mapping))

    def test_missing_referenced_file(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["polls"] = "nowhere.csv"
        with pytest.raises(ValueError, match="not found"):
            load_config(write_yaml(tmp_path, mapping))

    def test_missing_file_from_override_caught(self, tmp_path):
        p = write_yaml(tmp_path, base_mapping(tmp_path))
        with pytest.raises(ValueError, match="not found"):
            load_config(p, overrides={"polls": tmp_path / "ghost.csv"})

    def test_single_alias_string_promoted(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["entities"][0]["aliases"] = "Arden"
        cfg = load_config(write_yaml(tmp_path, mapping))
        assert cfg.entities[0].aliases == ("Arden",)

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "config.yaml"
        p.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mapping"):
            load_config(p)

    def test_yaml_syntax_error_names_file(self, tmp_path):
        p = tmp_path / "config.yaml"
        p.write_text("seed: [1, 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_config(p)

    def test_non_scalar_value_names_file(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["seed"] = [1, 2]
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_config(p)

    def test_entity_count_enforced(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["entities"] = mapping["entities"][:1]
        with pytest.raises(ValueError, match="two"):
            load_config(write_yaml(tmp_path, mapping))


class TestPipelineConfigValidation:
    def kwargs(self, tmp_path, **extra):
        base = dict(
            articles={"o": tmp_path / "a.jsonl"},
            polls=tmp_path / "p.csv",
            entities=(
                EntitySpec(label="A", aliases=("A",)),
                EntitySpec(label="B", aliases=("B",)),
            ),
            seed=1,
            out_dir=tmp_path / "out",
        )
        base.update(extra)
        return base

    def test_valid_defaults(self, tmp_path):
        cfg = PipelineConfig(**self.kwargs(tmp_path))
        assert cfg.bootstrap_b == 10000

    def test_duplicate_labels_rejected(self, tmp_path):
        entities = (
            EntitySpec(label="A", aliases=("One",)),
            EntitySpec(label="A", aliases=("Two",)),
        )
        with pytest.raises(ValueError, match="differ"):
            PipelineConfig(**self.kwargs(tmp_path, entities=entities))

    def test_shared_alias_rejected(self, tmp_path):
        entities = (
            EntitySpec(label="A", aliases=("Smith",)),
            EntitySpec(label="B", aliases=("smith", "Jones")),
        )
        with pytest.raises(ValueError, match="share"):
            PipelineConfig(**self.kwargs(tmp_path, entities=entities))

    def test_bounds(self, tmp_path):
        with pytest.raises(ValueError, match="n_topics"):
            PipelineConfig(**self.kwargs(tmp_path, n_topics=1))
        with pytest.raises(ValueError, match="normalization"):
            PipelineConfig(**self.kwargs(tmp_path, normalization="inverted"))
        with pytest.raises(ValueError, match="window_days"):
            PipelineConfig(**self.kwargs(tmp_path, window_days=0))
        with pytest.raises(ValueError, match="max_lag"):
            PipelineConfig(**self.kwargs(tmp_path, max_lag=-1))
        with pytest.raises(ValueError, match="bootstrap_gamma"):
            PipelineConfig(**self.kwargs(tmp_path, bootstrap_gamma=1.5))
        with pytest.raises(ValueError, match="drop_topics"):
            PipelineConfig(**self.kwargs(tmp_path, drop_topics=(9,)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_perm", 0),
            ("bootstrap_b", 0),
            ("bootstrap_b", 1),
            ("min_df", 0),
            ("keywords_per_topic", -1),
            ("membership_threshold", 0.0),
            ("membership_threshold", 1.5),
            ("min_topic_mentions", 0),
            # config-file sections and entity aliases of the wrong type
            ("topics", 5),
            ("analysis", 5),
            ("bootstrap", [1]),
            ("sentiment", "x"),
            ("aliases", 5),
        ],
    )
    def test_stage_settings_rejected_at_load(self, tmp_path, field, value):
        mapping, overrides = base_mapping(tmp_path), {}
        if field in PipelineConfig.__dataclass_fields__:
            overrides[field] = value
        elif field == "aliases":
            mapping["entities"][0]["aliases"] = value
        else:
            mapping[field] = value
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError, match=field) as exc_info:
            load_config(p, overrides)
        assert str(p) in str(exc_info.value)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("max_lag", -1, "must be >= 0, got -1"),
            ("n_topics", 1, "must be >= 2, got 1"),
            ("drop_topics", (9,), "[9] outside [0, 6)"),
        ],
    )
    def test_override_error_names_file_and_field(self, tmp_path, field, value, problem):
        p = write_yaml(tmp_path, base_mapping(tmp_path))
        with pytest.raises(ValueError) as exc_info:
            load_config(p, {field: value})
        assert str(exc_info.value) == f"{p}: {field} {problem}"

    @pytest.mark.parametrize(
        "section, key, value, problem",
        [
            ("analysis", "permutations", 0, "must be >= 1, got 0"),
            ("analysis", "max_lag", -1, "must be >= 0, got -1"),
            ("topics", "count", 1, "must be >= 2, got 1"),
            ("topics", "drop", [9], "[9] outside [0, 6)"),
            ("topics", "normalization", "inverted", "got 'inverted'"),
            ("topics", "min_df", 0, "must be >= 1, got 0"),
            ("topics", "keywords", 0, "must be >= 1, got 0"),
            (None, "window_days", 0, "must be >= 1, got 0"),
            ("bootstrap", "samples", 1, "must be >= 2, got 1"),
            ("bootstrap", "level", 1.5, "must be in (0, 1), got 1.5"),
            ("sentiment", "membership_threshold", 0.0, "must be in (0, 1], got 0.0"),
            ("sentiment", "min_topic_mentions", 0, "must be >= 1, got 0"),
        ],
    )
    def test_range_error_names_file_and_key(self, tmp_path, section, key, value, problem):
        mapping = base_mapping(tmp_path)
        if section is None:
            mapping[key] = value
        else:
            mapping[section] = {key: value}
        p = write_yaml(tmp_path, mapping)
        dotted = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value).startswith(f"{p}: {dotted} ")
        assert str(exc_info.value).endswith(problem)

    def test_bad_value_names_key(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["analysis"] = {"permutations": "many"}
        p = write_yaml(tmp_path, mapping)
        expected = f"{p}: bad value for analysis.permutations"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_config(p)

    def test_partial_lexicon_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="all four"):
            PipelineConfig(**self.kwargs(tmp_path, lexicon=tmp_path / "lex.tsv"))

    def test_outlets_sharing_a_file_tag_rejected(self, tmp_path):
        articles = {"Fox News": tmp_path / "a.jsonl", "fox_news": tmp_path / "b.jsonl"}
        with pytest.raises(ValueError, match="'Fox News' and 'fox_news'.*'fox_news'"):
            PipelineConfig(**self.kwargs(tmp_path, articles=articles))
        articles = {"Fox News": tmp_path / "a.jsonl", "Fox News 2": tmp_path / "b.jsonl"}
        PipelineConfig(**self.kwargs(tmp_path, articles=articles))

    @pytest.mark.parametrize(
        "edit, problem",
        [
            ("articles", "outlets 'Fox News' and 'fox_news' share the file tag 'fox_news'"),
            ("labels", "entity labels must differ"),
            ("aliases", "entities share aliases ['arden']"),
            ("lexicon", "a custom lexicon needs all four files"),
        ],
    )
    def test_config_error_names_file(self, tmp_path, edit, problem):
        mapping = base_mapping(tmp_path)
        if edit == "articles":
            mapping["articles"] = {"Fox News": "articles.jsonl", "fox_news": "articles.jsonl"}
        elif edit == "labels":
            mapping["entities"][1]["label"] = "Arden"
        elif edit == "aliases":
            mapping["entities"][1]["aliases"] = ["Briggs", "ARDEN"]
        else:
            mapping["sentiment"] = {"lexicon": "lex.tsv"}
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value).startswith(f"{p}: {problem}")

    def test_outlet_slug(self):
        assert outlet_slug("Outlet One!") == "outlet_one"
        assert outlet_slug("  Fox--News ") == "fox_news"
        assert outlet_slug("!!!") == "outlet"

    def test_empty_articles_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outlet"):
            PipelineConfig(**self.kwargs(tmp_path, articles={}))
