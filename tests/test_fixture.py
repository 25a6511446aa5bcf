import json
from datetime import date

import pytest

from newslens.config import load_config
from newslens.corpus import EntitySpec, load_articles, load_polls
from newslens.fixture import FixtureSpec, generate_fixture
from newslens.sentiment import load_lexicon

SMALL = FixtureSpec(days=40, lag=5, sb_targets=(0.4, -0.4, 0.25, -0.25, 0.0))


class TestFixtureSpec:
    def test_defaults_valid(self):
        spec = FixtureSpec()
        assert spec.days == 120
        assert spec.n_topics == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="topics"):
            FixtureSpec(n_topics=1, sb_targets=(0.0,))
        with pytest.raises(ValueError, match="target"):
            FixtureSpec(sb_targets=(0.0, 0.0))
        with pytest.raises(ValueError, match="causal_topic"):
            FixtureSpec(causal_topic=7)
        with pytest.raises(ValueError, match="lag"):
            FixtureSpec(days=30, lag=10)
        with pytest.raises(ValueError, match="0.8"):
            FixtureSpec(sb_targets=(0.9, 0.0, 0.0, 0.0, 0.0))


class TestGenerateFixture:
    def test_writes_all_files(self, tmp_path):
        files = generate_fixture(tmp_path, seed=3, spec=SMALL)
        names = {p.name for p in files.values()}
        assert names == {
            "articles.jsonl",
            "polls.csv",
            "stopwords.txt",
            "lexicon.tsv",
            "negators.txt",
            "intensifiers.txt",
            "diminishers.txt",
            "config.yaml",
            "ground_truth.json",
        }
        for p in files.values():
            assert p.is_file() and p.stat().st_size > 0

    def test_outputs_deterministic_for_seed(self, tmp_path):
        a = generate_fixture(tmp_path / "a", seed=11, spec=SMALL)
        b = generate_fixture(tmp_path / "b", seed=11, spec=SMALL)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_different_seeds_differ(self, tmp_path):
        a = generate_fixture(tmp_path / "a", seed=1, spec=SMALL)
        b = generate_fixture(tmp_path / "b", seed=2, spec=SMALL)
        assert a["articles"].read_bytes() != b["articles"].read_bytes()

    def test_config_loads_and_references_fixture_files(self, tmp_path):
        files = generate_fixture(tmp_path, seed=5, spec=SMALL)
        cfg = load_config(files["config"])
        assert cfg.n_topics == SMALL.n_topics
        assert cfg.window_days == 1
        assert cfg.normalization == "per_topic_area"
        assert cfg.seed == 5
        assert cfg.lexicon == tmp_path
        assert load_lexicon(cfg.lexicon).valence == {
            "splendid": 2, "admirable": 1, "dreadful": -2, "dismal": -2,
        }

    def test_articles_parse_and_cover_every_day(self, tmp_path):
        files = generate_fixture(tmp_path, seed=7, spec=SMALL)
        entities = (
            EntitySpec(label="Arden", aliases=("Arden",)),
            EntitySpec(label="Briggs", aliases=("Briggs",)),
        )
        arts = load_articles(files["articles"], entities)
        days = {a.date for a in arts}
        assert min(days) == SMALL.start
        assert len(days) == SMALL.days
        # every article names an entity, so none were dropped
        with open(files["articles"], encoding="utf-8") as fh:
            assert len(arts) == sum(1 for _ in fh)

    def test_polls_parse_with_sane_ranges(self, tmp_path):
        files = generate_fixture(tmp_path, seed=9, spec=SMALL)
        polls = load_polls(files["polls"])
        assert len(polls) == SMALL.days
        assert all(0.0 <= p.pct_a <= 100.0 for p in polls)
        assert all(p.pct_a + p.pct_b <= 100.0 for p in polls)

    def test_ground_truth_structure(self, tmp_path):
        files = generate_fixture(tmp_path, seed=13, spec=SMALL)
        gt = json.loads(files["ground_truth"].read_text())
        assert gt["seed"] == 13
        assert gt["days"] == SMALL.days
        assert gt["start"] == SMALL.start.isoformat()
        assert gt["causal"]["topic"] == SMALL.causal_topic
        assert gt["causal"]["lag"] == SMALL.lag
        assert len(gt["topics"]) == SMALL.n_topics
        for topic in gt["topics"]:
            assert len(topic["terms"]) == SMALL.terms_per_topic
            assert topic["mentions"] > 0

    def test_topic_vocabularies_disjoint(self, tmp_path):
        files = generate_fixture(tmp_path, seed=15, spec=SMALL)
        gt = json.loads(files["ground_truth"].read_text())
        seen: set[str] = set()
        for topic in gt["topics"]:
            terms = set(topic["terms"])
            assert not terms & seen
            seen |= terms

    def test_sb_empirical_near_target(self, tmp_path):
        # default scale: 720 mentions per topic, so 0.1 is > 3 standard errors
        files = generate_fixture(tmp_path, seed=17)
        gt = json.loads(files["ground_truth"].read_text())
        for topic in gt["topics"]:
            assert topic["sb_empirical"] == pytest.approx(topic["sb_target"], abs=0.1)

    def test_beta_zero_means_no_causal_entry(self, tmp_path):
        spec = FixtureSpec(days=40, lag=5, beta=0.0)
        files = generate_fixture(tmp_path, seed=19, spec=spec)
        gt = json.loads(files["ground_truth"].read_text())
        assert gt["causal"] is None

    def test_article_topics_map_complete(self, tmp_path):
        files = generate_fixture(tmp_path, seed=21, spec=SMALL)
        gt = json.loads(files["ground_truth"].read_text())
        ids = set()
        with open(files["articles"], encoding="utf-8") as fh:
            for line in fh:
                ids.add(json.loads(line)["id"])
        assert set(gt["article_topics"]) == ids
        assert set(gt["article_topics"].values()) == set(range(SMALL.n_topics))

    def test_agenda_shift_planted(self, tmp_path):
        files = generate_fixture(tmp_path, seed=23, spec=SMALL)
        gt = json.loads(files["ground_truth"].read_text())
        causal = SMALL.causal_topic
        assert gt["coverage_share_late"][causal] > gt["coverage_share_early"][causal]
