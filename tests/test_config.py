import json
import re
from pathlib import Path

import pytest
import yaml

from newslens.config import PipelineConfig, load_config, outlet_slug
from newslens.corpus import EntitySpec
from newslens.sentiment import LEXICON_FILES

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

    def test_null_output_means_default(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["output"] = None
        assert load_config(write_yaml(tmp_path, mapping)).out_dir == tmp_path / "out"

    @pytest.mark.parametrize(
        "section, key, dotted",
        [
            ("analysis", "permutation", "analysis.permutation"),
            ("analysis", "max_lags", "analysis.max_lags"),
            ("anlysis", "max_lag", "anlysis"),
            (None, "windw_days", "windw_days"),
            # the marker lists are files of the sentiment.lexicon directory
            ("sentiment", "negators", "sentiment.negators"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, section, key, dotted):
        mapping = base_mapping(tmp_path)
        if section is None:
            mapping[key] = 3
        else:
            mapping[section] = {key: 3}
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value) == f"{p}: unknown config keys {dotted!r}"

    def test_unknown_keys_quoted(self, tmp_path):
        # An empty key, or one holding the separator, can be read back.
        mapping = base_mapping(tmp_path)
        mapping[""] = 3
        mapping["a, b"] = 4
        mapping["analysis"] = {"": 5}
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value) == f"{p}: unknown config keys '', 'a, b', 'analysis.'"

    def test_dotted_key_at_top_level_rejected(self, tmp_path):
        # A section's key written at the top level sets nothing.
        mapping = base_mapping(tmp_path)
        mapping["analysis.max_lag"] = 3
        mapping["topics.count"] = 9
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value) == (
            f"{p}: unknown config keys 'analysis.max_lag', 'topics.count'"
        )

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        text = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        mapping = yaml.safe_load(text)
        files = [*mapping["articles"].values(), mapping["polls"], mapping["stopwords"]]
        files += [mapping["sentiment"]["labels"]]
        files += [f"{mapping['sentiment']['lexicon']}/{name}" for name in LEXICON_FILES]
        (tmp_path / mapping["sentiment"]["lexicon"]).mkdir()
        for name in files:
            (tmp_path / name).write_text("", encoding="utf-8")
        p = tmp_path / "config.yaml"
        p.write_text(text, encoding="utf-8")
        cfg = load_config(p)
        assert cfg.seed == 11
        assert cfg.labels == tmp_path / "labels.csv"
        assert cfg.lexicon == tmp_path / mapping["sentiment"]["lexicon"]

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

    @pytest.mark.parametrize("absent", LEXICON_FILES)
    def test_lexicon_directory_missing_a_file_rejected(self, tmp_path, absent):
        mapping = base_mapping(tmp_path)
        mapping["sentiment"] = {"lexicon": "lex"}
        (tmp_path / "lex").mkdir()
        for name in LEXICON_FILES:
            if name != absent:
                (tmp_path / "lex" / name).write_text("x\n", encoding="utf-8")
        p = write_yaml(tmp_path, mapping)
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        missing = tmp_path / "lex" / absent
        assert str(exc_info.value) == f"{p}: referenced files not found: {missing}"

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

    def test_aliases_equal_after_nfc_rejected(self, tmp_path):
        # Entity patterns match NFC text, so a composed and a decomposed
        # spelling of one alias match the same words.
        entities = (
            EntitySpec(label="A", aliases=("Caf\u00e9",)),
            EntitySpec(label="B", aliases=("CAFE\u0301", "Jones")),
        )
        with pytest.raises(ValueError, match="share aliases \\['caf\u00e9'\\]"):
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
            ("topics", "drop", [0, 1, 2, 3, 4, 5], "drops all 6 topics; at least one must be kept"),
            ("topics", "normalization", "inverted", "got 'inverted'"),
            ("topics", "min_df", 0, "must be >= 1, got 0"),
            ("topics", "keywords", 0, "must be >= 1, got 0"),
            (None, "window_days", 0, "must be >= 1, got 0"),
            (None, "seed", -1, "must be >= 0, got -1"),
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

    @pytest.mark.parametrize(
        "section, key, value, problem",
        [
            ("topics", "drop", "12", "expected a list of integers, got '12'"),
            ("topics", "drop", [1.7], "expected an integer, got 1.7"),
            ("topics", "drop", [True], "expected an integer, got True"),
            (None, "window_days", True, "expected an integer, got True"),
            ("analysis", "max_lag", 15.9, "expected an integer, got 15.9"),
            (None, "seed", 11.8, "expected an integer, got 11.8"),
            ("topics", "count", "6", "expected an integer, got '6'"),
            ("bootstrap", "level", True, "expected a number, got True"),
            ("bootstrap", "level", "0.9", "expected a number, got '0.9'"),
            ("sentiment", "membership_threshold", "0.5", "expected a number, got '0.5'"),
        ],
    )
    def test_wrong_type_rejected_naming_file_and_key(self, tmp_path, section, key, value, problem):
        mapping = base_mapping(tmp_path)
        if section is None:
            mapping[key] = value
        else:
            mapping[section] = {key: value}
        p = write_yaml(tmp_path, mapping)
        dotted = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError) as exc_info:
            load_config(p)
        assert str(exc_info.value) == f"{p}: bad value for {dotted}: {problem}"

    def test_integer_fraction_accepted(self, tmp_path):
        mapping = base_mapping(tmp_path)
        mapping["sentiment"] = {"membership_threshold": 1}
        assert load_config(write_yaml(tmp_path, mapping)).membership_threshold == 1.0

    @pytest.mark.parametrize("drop", [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0, 0)])
    def test_dropping_every_topic_rejected(self, tmp_path, drop):
        with pytest.raises(ValueError) as exc_info:
            PipelineConfig(**self.kwargs(tmp_path, drop_topics=drop))
        assert str(exc_info.value) == (
            "config: topics.drop (--drop-topics) drops all 6 topics; at least one must be kept"
        )
        PipelineConfig(**self.kwargs(tmp_path, drop_topics=drop[1:6]))

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
            ("empty_label", "entity label must be non-empty"),
            ("blank_alias", "entity 'Briggs' has a blank alias"),
            ("blank_label", "entity label '  ' is blank"),
            ("null_label", "entity labels and aliases must be strings"),
            ("null_alias", "entity labels and aliases must be strings"),
        ],
    )
    def test_config_error_names_file(self, tmp_path, edit, problem):
        mapping = base_mapping(tmp_path)
        if edit == "empty_label":
            mapping["entities"][0]["label"] = ""
        elif edit == "blank_label":
            mapping["entities"][0]["label"] = "  "
        elif edit == "null_label":
            mapping["entities"][0]["label"] = None
        elif edit == "null_alias":
            mapping["entities"][0]["aliases"] = ["Arden", None]
        elif edit == "blank_alias":
            mapping["entities"][1]["aliases"] = ["Briggs", " "]
        elif edit == "articles":
            mapping["articles"] = {"Fox News": "articles.jsonl", "fox_news": "articles.jsonl"}
        elif edit == "labels":
            mapping["entities"][1]["label"] = "Arden"
        else:
            mapping["entities"][1]["aliases"] = ["Briggs", "ARDEN"]
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
