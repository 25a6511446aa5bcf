import random
from datetime import date

import numpy as np
import pytest

from newslens.corpus import EntitySpec, split_sentences
from newslens.sentiment import (
    Lexicon,
    MentionRecord,
    default_lexicon,
    extract_mentions,
    load_labels,
    load_lexicon,
    mention_records,
    mention_value,
    per_topic_sb,
    sb_series,
    score_sentence,
    sentiment_bias,
    tally_mentions,
)
from newslens.topics import NmfFactors

from conftest import make_article


def tiny_lexicon() -> Lexicon:
    return Lexicon(
        valence={"good": 1, "great": 2, "bad": -1, "awful": -2},
        negators=frozenset({"not", "never"}),
        intensifiers=frozenset({"very"}),
        diminishers=frozenset({"slightly"}),
    )


def mention(entity: str, sentiment: str, day=date(2021, 3, 1), art="a1"):
    return MentionRecord(
        article_id=art, date=day, entity=entity, sentence="x", sentiment=sentiment
    )


def worked_tally():
    """Nine mentions: A +,+,+,- and B +,+,-,-,-."""
    records = (
        [mention("A", "positive")] * 3
        + [mention("A", "negative")]
        + [mention("B", "positive")] * 2
        + [mention("B", "negative")] * 3
    )
    return tally_mentions(records, "A", "B")


class TestLoadLexicon:
    def write_files(self, tmp_path, valence="good\t1\nbad\t-1\n"):
        v = tmp_path / "lex.tsv"
        v.write_text(valence, encoding="utf-8")
        for name in ("neg", "int", "dim"):
            (tmp_path / f"{name}.txt").write_text(f"{name}word\n", encoding="utf-8")
        return v, tmp_path / "neg.txt", tmp_path / "int.txt", tmp_path / "dim.txt"

    def test_valid_round_trip(self, tmp_path):
        lex = load_lexicon(*self.write_files(tmp_path))
        assert lex.valence == {"good": 1, "bad": -1}
        assert lex.negators == frozenset({"negword"})

    def test_bad_valence_value(self, tmp_path):
        paths = self.write_files(tmp_path, valence="good\t3\n")
        with pytest.raises(ValueError, match="valence 3"):
            load_lexicon(*paths)

    def test_zero_valence_rejected(self, tmp_path):
        paths = self.write_files(tmp_path, valence="meh\t0\n")
        with pytest.raises(ValueError):
            load_lexicon(*paths)

    def test_non_integer_valence(self, tmp_path):
        paths = self.write_files(tmp_path, valence="good\tstrong\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_lexicon(*paths)

    def test_missing_tab(self, tmp_path):
        paths = self.write_files(tmp_path, valence="good 1\n")
        with pytest.raises(ValueError, match="TAB"):
            load_lexicon(*paths)

    def test_duplicate_term(self, tmp_path):
        paths = self.write_files(tmp_path, valence="good\t1\nGood\t2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_lexicon(*paths)

    def test_empty_lexicon(self, tmp_path):
        paths = self.write_files(tmp_path, valence="# nothing\n")
        with pytest.raises(ValueError, match="empty"):
            load_lexicon(*paths)

    def test_default_lexicon_is_well_formed(self):
        lex = default_lexicon()
        assert len(lex.valence) > 500
        assert set(lex.valence.values()) == {-2, -1, 1, 2}
        markers = lex.negators | lex.intensifiers | lex.diminishers
        # marker words must not double as valenced terms
        assert not markers & set(lex.valence)
        assert not lex.negators & lex.intensifiers
        assert not lex.negators & lex.diminishers
        assert not lex.intensifiers & lex.diminishers


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("One thing. Another thing.") == [
            "One thing.",
            "Another thing.",
        ]

    def test_requires_uppercase_after_terminator(self):
        assert split_sentences("version 2. beta is out") == ["version 2. beta is out"]

    def test_requires_whitespace(self):
        assert split_sentences("Approx.Value rose") == ["Approx.Value rose"]

    def test_abbreviation_does_not_split(self):
        assert split_sentences("Dr. Smith arrived. He spoke.") == [
            "Dr. Smith arrived.",
            "He spoke.",
        ]

    def test_initials_do_not_split(self):
        got = split_sentences("J. K. Rowling wrote. Fans cheered.")
        assert got == ["J. K. Rowling wrote.", "Fans cheered."]

    def test_exclamation_and_question(self):
        assert split_sentences("Really?! Yes. Fine then!") == [
            "Really?!",
            "Yes.",
            "Fine then!",
        ]

    def test_abbreviation_rule_only_for_periods(self):
        # "no" is on the abbreviation list but here the terminator is !
        assert split_sentences("She said no! He left.") == [
            "She said no!",
            "He left.",
        ]

    def test_join_reproduces_text(self):
        text = "Sen. Marsh spoke at 3 p.m. Tuesday. The hall was full! Was it? Yes."
        parts = split_sentences(text)
        assert " ".join(parts).split() == text.split()

    def test_empty_and_whitespace(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []


class TestScoreSentence:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("good effort", "positive"),
            ("great effort", "very_positive"),
            ("bad call", "negative"),
            ("awful call", "very_negative"),
            ("very good effort", "very_positive"),
            ("slightly good effort", "positive"),
            ("not good effort", "negative"),
            ("never was it good", "negative"),
            ("not very good", "very_negative"),
            ("not slightly good", "negative"),
            ("good and bad", "neutral"),
            ("nothing scored here", "neutral"),
            ("", "neutral"),
            ("very bad day", "very_negative"),
            ("not awful outcome", "very_positive"),
        ],
    )
    def test_rule_cases(self, text, expected):
        assert score_sentence(text, tiny_lexicon()) == expected

    def test_negator_window_is_three_tokens(self):
        lex = tiny_lexicon()
        assert score_sentence("not one two good", lex) == "negative"
        assert score_sentence("not one two three good", lex) == "positive"

    def test_intensifier_must_be_adjacent(self):
        lex = tiny_lexicon()
        assert score_sentence("very truly good", lex) == "positive"

    def test_boundary_classes(self):
        lex = tiny_lexicon()
        # summed score of exactly 2 and exactly -2
        assert score_sentence("good good", lex) == "very_positive"
        assert score_sentence("bad bad", lex) == "very_negative"


class TestExtractMentions:
    def entities(self):
        return (
            EntitySpec(label="Arden", aliases=("Arden",)),
            EntitySpec(label="Briggs", aliases=("Briggs",)),
        )

    def test_single_entity_takes_sentence(self):
        art = make_article(title="", body="Arden gave a speech today.")
        got = extract_mentions(art, self.entities())
        assert got == [(0, self.entities()[0], "Arden gave a speech today.")]

    def test_title_offsets_sentence_index(self):
        art = make_article(title="Morning brief", body="Arden spoke.")
        (idx, entity, clause), = extract_mentions(art, self.entities())
        assert idx == 1

    def test_two_entities_split_into_clauses(self):
        art = make_article(
            title="", body="Arden celebrated the win, but Briggs disputed it."
        )
        got = extract_mentions(art, self.entities())
        assert [(e.label, c) for _, e, c in got] == [
            ("Arden", "Arden celebrated the win"),
            ("Briggs", "Briggs disputed it."),
        ]

    def test_clause_with_both_names_counts_for_each(self):
        art = make_article(title="", body="Arden met Briggs. Nothing else happened.")
        got = extract_mentions(art, self.entities())
        assert sorted(e.label for _, e, _ in got) == ["Arden", "Briggs"]
        assert all(c == "Arden met Briggs." for _, _, c in got)

    def test_entity_in_multiple_clauses(self):
        art = make_article(
            title="", body="Arden won, Arden smiled, and Briggs left early."
        )
        got = extract_mentions(art, self.entities())
        labels = [e.label for _, e, _ in got]
        assert labels == ["Arden", "Arden", "Briggs"]

    def test_no_entities_no_mentions(self):
        art = make_article(title="", body="The weather was mild.")
        assert extract_mentions(art, self.entities()) == []


class TestLoadLabels:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(
            "article_id,sentence_index,class\na1,0,positive\na1,2,neutral\n",
            encoding="utf-8",
        )
        assert load_labels(p) == {("a1", 0): "positive", ("a1", 2): "neutral"}

    def test_bad_header(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,idx,label\na1,0,positive\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_labels(p)

    def test_unknown_class(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("article_id,sentence_index,class\na1,0,meh\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown class"):
            load_labels(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(
            "article_id,sentence_index,class\na1,0,positive\na1,0,negative\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_labels(p)

    def test_negative_index(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("article_id,sentence_index,class\na1,-1,neutral\n", encoding="utf-8")
        with pytest.raises(ValueError, match="negative"):
            load_labels(p)


class TestMentionRecords:
    def entities(self):
        return (
            EntitySpec(label="Arden", aliases=("Arden",)),
            EntitySpec(label="Briggs", aliases=("Briggs",)),
        )

    def test_scorer_fallback(self):
        art = make_article(title="", body="Arden was good today.")
        records = mention_records([art], self.entities(), tiny_lexicon())
        assert len(records) == 1
        assert records[0].sentiment == "positive"
        assert records[0].entity == "Arden"
        assert records[0].date == art.date

    def test_labels_override_scorer(self):
        art = make_article(title="", body="Arden was good today.")
        labels = {("a1", 0): "very_negative"}
        records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        assert records[0].sentiment == "very_negative"

    def test_title_gets_label_index_zero(self):
        art = make_article(title="Arden rises", body="Nothing here.")
        labels = {("a1", 0): "positive"}
        records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        assert records[0].sentiment == "positive"

    def test_unlabeled_sentences_warn_once(self, caplog):
        arts = [
            make_article(id="a1", title="", body="Arden was good. Arden was bad."),
        ]
        with caplog.at_level("WARNING", logger="newslens.sentiment"):
            records = mention_records(
                arts, self.entities(), tiny_lexicon(), labels={("a1", 0): "neutral"}
            )
        assert [r.sentiment for r in records] == ["neutral", "negative"]
        assert sum("no precomputed label" in r.message for r in caplog.records) == 1


class TestSentimentBias:
    def test_worked_value_exact(self):
        sb = sentiment_bias(worked_tally())
        assert sb.value == 1.0 / 3.0

    def test_resample_value_exact(self):
        records = (
            [mention("A", "positive")] * 5
            + [mention("B", "negative")] * 2
            + [mention("B", "positive")] * 2
        )
        sb = sentiment_bias(tally_mentions(records, "A", "B"))
        assert sb.value == 5.0 / 9.0

    def test_neutral_counts_in_denominator(self):
        records = [mention("A", "positive"), mention("B", "neutral")]
        sb = sentiment_bias(tally_mentions(records, "A", "B"))
        assert sb.value == 0.5

    def test_very_classes_fold_into_polarity(self):
        records = [mention("A", "very_positive"), mention("B", "very_negative")]
        sb = sentiment_bias(tally_mentions(records, "A", "B"))
        assert sb.value == 1.0

    def test_bounds(self):
        rng = random.Random(99)
        classes = ("very_negative", "negative", "neutral", "positive", "very_positive")
        for trial in range(30):
            records = [
                mention(rng.choice("AB"), rng.choice(classes))
                for _ in range(rng.randint(1, 40))
            ]
            sb = sentiment_bias(tally_mentions(records, "A", "B"))
            assert -2.0 <= sb.value <= 2.0

    def test_symmetry_under_entity_swap(self):
        records = (
            [mention("A", "positive")] * 3
            + [mention("B", "negative")] * 2
            + [mention("B", "neutral")]
        )
        forward = sentiment_bias(tally_mentions(records, "A", "B")).value
        backward = sentiment_bias(tally_mentions(records, "B", "A")).value
        assert forward == -backward

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sentiment_bias(tally_mentions([], "A", "B"))

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            tally_mentions([mention("C", "neutral")], "A", "B")

    def test_mention_value_signs(self):
        assert mention_value("A", "positive", "A", "B") == 1
        assert mention_value("A", "very_negative", "A", "B") == -1
        assert mention_value("B", "positive", "A", "B") == -1
        assert mention_value("B", "negative", "A", "B") == 1
        assert mention_value("A", "neutral", "A", "B") == 0

    def test_sum_of_mention_values_matches_bias_numerator(self):
        rng = random.Random(7)
        classes = ("very_negative", "negative", "neutral", "positive", "very_positive")
        for trial in range(20):
            records = [
                mention(rng.choice("AB"), rng.choice(classes))
                for _ in range(rng.randint(1, 30))
            ]
            sb = sentiment_bias(tally_mentions(records, "A", "B"))
            total = sum(mention_value(m.entity, m.sentiment, "A", "B") for m in records)
            assert sb.value == total / len(records)


class TestSbSeries:
    def test_single_day_window_one(self):
        records = (
            [mention("A", "positive")] * 3
            + [mention("A", "negative")]
            + [mention("B", "positive")] * 2
            + [mention("B", "negative")] * 3
        )
        s = sb_series(records, "A", "B", window_days=1)
        assert len(s) == 1
        assert s.values[0] == 1.0 / 3.0

    def test_window_pools_before_dividing(self):
        records = [
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "negative", day=date(2021, 3, 2)),
        ]
        s = sb_series(records, "A", "B", window_days=2)
        # day 2 pools all three mentions: (2 - 1) / 3, not a mean of daily values
        assert s.values[1] == pytest.approx(1.0 / 3.0)

    def test_empty_day_carries_forward(self):
        records = [
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "negative", day=date(2021, 3, 4)),
        ]
        s = sb_series(records, "A", "B", window_days=1)
        assert list(s.values) == [1.0, 1.0, 1.0, -1.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no mentions"):
            sb_series([], "A", "B")


class TestPerTopicSb:
    def factors(self, h, ids):
        return NmfFactors(
            H=np.asarray(h, dtype=float),
            W=np.ones((np.asarray(h).shape[1], 3)),
            n_topics=np.asarray(h).shape[1],
            final_error=0.0,
            iterations=0,
            errors=np.array([0.0]),
            doc_ids=tuple(ids),
        )

    def test_membership_by_loading_share(self):
        # a1 belongs to topic 0 only; a2 splits evenly and belongs to both
        factors = self.factors([[0.9, 0.1], [0.5, 0.5]], ["a1", "a2"])
        records = [
            mention("A", "positive", art="a1"),
            mention("B", "negative", art="a2"),
        ]
        out = per_topic_sb(records, factors, "A", "B", min_mentions=1)
        assert out[0].value == 1.0  # both mentions: (1 + 1) / 2
        assert out[1].value == 1.0  # only a2's mention: 1 / 1
        assert out[0].tally.total == 2
        assert out[1].tally.total == 1

    def test_sparse_topic_reported_none(self):
        factors = self.factors([[1.0, 0.0]], ["a1"])
        records = [mention("A", "positive", art="a1")]
        out = per_topic_sb(records, factors, "A", "B", min_mentions=2)
        assert out == [None, None]

    def test_unknown_articles_skipped(self):
        factors = self.factors([[1.0]], ["a1"])
        records = [
            mention("A", "positive", art="a1"),
            mention("B", "negative", art="missing"),
        ]
        out = per_topic_sb(records, factors, "A", "B", min_mentions=1)
        assert out[0].tally.total == 1

    def test_threshold_validation(self):
        factors = self.factors([[1.0]], ["a1"])
        with pytest.raises(ValueError, match="membership_threshold"):
            per_topic_sb([], factors, "A", "B", membership_threshold=0.0)
