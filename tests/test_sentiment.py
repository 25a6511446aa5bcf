import logging
import random
import re
from datetime import date

import numpy as np
import pytest

from newslens import sentiment
from newslens.config import load_config
from newslens.pipeline import run_pipeline
from newslens.corpus import EntitySpec, load_articles, split_sentences
from newslens.series import DatedSeries, pooled_window_mean, sliding_mean
from newslens.sentiment import (
    FIELD_SIGNS,
    SENTIMENT_CLASSES,
    Lexicon,
    MentionRecord,
    SentimentTally,
    default_lexicon,
    load_labels,
    load_lexicon,
    mention_records,
    per_topic_sb,
    sb_series,
    score_sentence,
    sentiment_bias,
    tally_codes,
    tally_mentions,
)
from newslens.topics import NmfFactors

from conftest import build_run_dir, make_article


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


def coded(records):
    return tally_codes(records, "A", "B")


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

    def test_decomposed_terms_match_tokens(self, tmp_path):
        # "café" and "néver" written with combining accents; tokenize
        # yields the composed (NFC) forms
        paths = self.write_files(tmp_path, valence="cafe\u0301\t1\n")
        paths[1].write_text("ne\u0301ver\n", encoding="utf-8")
        lex = load_lexicon(*paths)
        assert lex.valence == {"caf\u00e9": 1}
        assert lex.negators == frozenset({"n\u00e9ver"})
        assert score_sentence("the caf\u00e9", lex) == "positive"
        assert score_sentence("n\u00e9ver the caf\u00e9", lex) == "negative"

    def test_composed_and_decomposed_terms_are_duplicates(self, tmp_path):
        paths = self.write_files(tmp_path, valence="caf\u00e9\t1\ncafe\u0301\t2\n")
        with pytest.raises(ValueError, match="duplicate"):
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

    def mentions(self, art, labels=None):
        """(entity, clause) of each mention ``mention_records`` reads."""
        _, records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        return [(r.entity, r.sentence) for r in records]

    def test_single_entity_takes_sentence(self):
        art = make_article(title="", body="Arden gave a speech today.")
        assert self.mentions(art) == [("Arden", "Arden gave a speech today.")]

    def test_title_offsets_sentence_index(self):
        # the body's first sentence is sentence 1 after the title
        art = make_article(title="Morning brief", body="Arden spoke.")
        labels = {(art.id, 0): "very_negative", (art.id, 1): "very_positive"}
        _, records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        assert [(r.sentence, r.sentiment) for r in records] == [("Arden spoke.", "very_positive")]

    def test_two_entities_split_into_clauses(self):
        art = make_article(
            title="", body="Arden celebrated the win, but Briggs disputed it."
        )
        assert self.mentions(art) == [
            ("Arden", "Arden celebrated the win"),
            ("Briggs", "Briggs disputed it."),
        ]

    def test_clause_with_both_names_counts_for_each(self):
        art = make_article(title="", body="Arden met Briggs. Nothing else happened.")
        got = self.mentions(art)
        assert sorted(e for e, _ in got) == ["Arden", "Briggs"]
        assert all(c == "Arden met Briggs." for _, c in got)

    def test_entity_in_multiple_clauses(self):
        art = make_article(
            title="", body="Arden won, Arden smiled, and Briggs left early."
        )
        assert [e for e, _ in self.mentions(art)] == ["Arden", "Arden", "Briggs"]

    def test_no_entities_no_mentions(self):
        art = make_article(title="", body="The weather was mild.")
        assert self.mentions(art) == []


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
        _, records = mention_records([art], self.entities(), tiny_lexicon())
        assert len(records) == 1
        assert records[0].sentiment == "positive"
        assert records[0].entity == "Arden"
        assert records[0].date == art.date

    def test_labels_override_scorer(self):
        art = make_article(title="", body="Arden was good today.")
        labels = {("a1", 0): "very_negative"}
        _, records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        assert records[0].sentiment == "very_negative"

    def test_title_gets_label_index_zero(self):
        art = make_article(title="Arden rises", body="Nothing here.")
        labels = {("a1", 0): "positive"}
        _, records = mention_records([art], self.entities(), tiny_lexicon(), labels)
        assert records[0].sentiment == "positive"

    def test_unlabeled_sentences_warn_once(self, caplog):
        arts = [
            make_article(id="a1", title="", body="Arden was good. Arden was bad."),
        ]
        with caplog.at_level("WARNING", logger="newslens.sentiment"):
            _, records = mention_records(
                arts, self.entities(), tiny_lexicon(), labels={("a1", 0): "neutral"}
            )
        assert [r.sentiment for r in records] == ["neutral", "negative"]
        assert sum("no precomputed label" in r.message for r in caplog.records) == 1


# The two mention readers the one reader replaced, written out as the oracle.
_REF_CLAUSE_SPLIT = re.compile(r"[,;]|\b(?:and|but|or|nor|yet|so)\b", re.IGNORECASE)


def reference_mention_counts(articles, entities, window_days):
    first = min(a.date for a in articles)
    last = max(a.date for a in articles)
    raw = np.zeros((len(entities), (last - first).days + 1))
    for art in articles:
        day = (art.date - first).days
        for sent in art.sentences:
            for i, entity in enumerate(entities):
                if entity.matches(sent):
                    raw[i, day] += 1
    return {
        e.label: sliding_mean(DatedSeries(first, raw[i], label=f"mentions_{e.label}"), window_days)
        for i, e in enumerate(entities)
    }


def reference_extract_mentions(article, entities):
    out = []
    for idx, sent in enumerate(article.sentences):
        named = [e for e in entities if e.matches(sent)]
        if len(named) == 1:
            out.append((idx, named[0], sent))
        elif len(named) > 1:
            for clause in _REF_CLAUSE_SPLIT.split(sent):
                clause = clause.strip()
                if not clause:
                    continue
                for e in named:
                    if e.matches(clause):
                        out.append((idx, e, clause))
    return out


def reference_mention_records(articles, entities, lexicon, labels=None):
    records = []
    missing = 0
    for art in articles:
        for idx, entity, clause in reference_extract_mentions(art, entities):
            cls = None
            if labels is not None:
                cls = labels.get((art.id, idx))
                if cls is None:
                    missing += 1
            if cls is None:
                cls = score_sentence(clause, lexicon)
            records.append(MentionRecord(art.id, art.date, entity.label, clause, cls))
    if labels is not None and missing:
        logging.getLogger("newslens.sentiment").warning(
            "%d mentions had no precomputed label; rule scorer used", missing
        )
    return records


class TestOneMentionReader:
    def assert_matches_reference(self, articles, entities, lexicon, labels=None, window_days=3):
        series, records = mention_records(articles, entities, lexicon, labels, window_days)
        expected = reference_mention_counts(articles, entities, window_days)
        assert list(series) == list(expected)
        for label, want in expected.items():
            got = series[label]
            assert (got.start, got.label) == (want.start, want.label)
            assert got.values.tobytes() == want.values.tobytes()
        assert records == reference_mention_records(articles, entities, lexicon, labels)
        return series, records

    def test_build_run_dir_corpus(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        arts = load_articles(cfg.articles["outlet_one"], cfg.entities)
        self.assert_matches_reference(
            arts, cfg.entities, default_lexicon(), window_days=cfg.window_days
        )

    def test_sentences_naming_both(self, entity_pair):
        arts = [
            make_article(id="a1", title="Arden and Briggs debate",
                         body="Arden was good, but Briggs was awful. Briggs met Arden."),
            make_article(id="a2", day=date(2021, 3, 4), title="",
                         body="Briggs won; Arden lost and Briggs smiled. Nobody else spoke."),
        ]
        self.assert_matches_reference(arts, entity_pair, tiny_lexicon())

    def test_alias_across_clause_separator(self):
        entities = (
            EntitySpec(label="Arden", aliases=("Arden",)),
            EntitySpec(label="Briggs", aliases=("Briggs, Jr.",)),
        )
        art = make_article(title="", body="Arden met Briggs, Jr. at noon.")
        series, records = self.assert_matches_reference([art], entities, tiny_lexicon())
        # the sentence names Briggs, but no clause does
        assert series["Briggs"].values[0] == 1.0
        assert [r.entity for r in records] == ["Arden"]

    def test_labels_with_gaps_warn_once(self, entity_pair, caplog):
        arts = [
            make_article(id="a1", title="Arden rises", body="Arden was good. Briggs was bad."),
            make_article(id="a2", day=date(2021, 3, 2), title="",
                         body="Arden and Briggs argued, but Arden won."),
        ]
        labels = {("a1", 0): "very_positive", ("a2", 0): "negative"}
        with caplog.at_level("WARNING", logger="newslens.sentiment"):
            mention_records(arts, entity_pair, tiny_lexicon(), labels)
        assert sum("no precomputed label" in r.message for r in caplog.records) == 1
        self.assert_matches_reference(arts, entity_pair, tiny_lexicon(), labels)


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

    def test_tally_code_signs(self):
        records = [
            mention("A", "positive"), mention("A", "very_negative"), mention("A", "neutral"),
            mention("B", "very_positive"), mention("B", "negative"), mention("B", "neutral"),
        ]
        codes = tally_codes(records, "A", "B")
        assert codes.tolist() == [0, 1, 2, 3, 4, 5]
        assert [FIELD_SIGNS[c] for c in codes] == [1, -1, 0, -1, 1, 0]
        assert SentimentTally("A", "B", 1, 2, 3, 4, 5, 6).value_counts == (1 + 5, 3 + 6, 2 + 4)

    def test_sum_of_field_signs_matches_bias_numerator(self):
        rng = random.Random(7)
        for trial in range(20):
            records = [
                mention(rng.choice("AB"), rng.choice(SENTIMENT_CLASSES))
                for _ in range(rng.randint(1, 30))
            ]
            sb = sentiment_bias(tally_mentions(records, "A", "B"))
            total = sum(FIELD_SIGNS[c] for c in tally_codes(records, "A", "B"))
            assert sb.value == total / len(records)


class TestTallyCodes:
    def test_tally_counts_codes(self):
        records = [mention(e, c) for e in "AB" for c in SENTIMENT_CLASSES]
        codes = tally_codes(records, "A", "B")
        assert codes.tolist() == [1, 1, 2, 0, 0, 4, 4, 5, 3, 3]
        assert tally_mentions(records, "A", "B") == SentimentTally("A", "B", 2, 2, 1, 2, 2, 1)
        assert SentimentTally.from_codes("A", "B", codes).counts == (2, 2, 1, 2, 2, 1)

    def test_empty(self):
        assert tally_codes([], "A", "B").tolist() == []
        assert tally_mentions([], "A", "B").total == 0

    def test_invalid_mention_rejected(self):
        with pytest.raises(ValueError, match="'C' is neither 'A' nor 'B'"):
            tally_codes([mention("A", "neutral"), mention("C", "positive")], "A", "B")
        with pytest.raises(ValueError, match="unknown sentiment class 'glad'"):
            tally_codes([mention("B", "glad")], "A", "B")

    def test_each_mention_classified_once_per_outlet(self, tmp_path, monkeypatch):
        reads = []

        class CountedRecord(MentionRecord):
            def __getattribute__(self, name):
                if name == "sentiment":
                    reads.append(id(self))
                return super().__getattribute__(name)

        monkeypatch.setattr(sentiment, "MentionRecord", CountedRecord)
        cfg = load_config(build_run_dir(tmp_path))
        (res,) = run_pipeline(cfg, through="sentiment").state.outlets.values()
        assert res.sb_by_topic and res.sb_bootstrap is not None
        assert len(res.mentions) > 0
        assert sorted(reads) == sorted(id(m) for m in res.mentions)


def reference_sb_series(mentions, label_a, label_b, window_days):
    """sb_series as a loop over mentions, each valued from its entity and class."""
    polarity = {"very_negative": -1, "negative": -1, "neutral": 0,
                "positive": 1, "very_positive": 1}

    def value(m):
        sign = {label_a: 1, label_b: -1}[m.entity]
        return sign * polarity[m.sentiment]

    pairs = ((m.date, value(m)) for m in mentions)
    return pooled_window_mean(pairs, window_days, "sentiment_bias")


class TestSbSeries:
    def test_single_day_window_one(self):
        records = (
            [mention("A", "positive")] * 3
            + [mention("A", "negative")]
            + [mention("B", "positive")] * 2
            + [mention("B", "negative")] * 3
        )
        s = sb_series(records, tally_codes(records, "A", "B"), window_days=1)
        assert len(s) == 1
        assert s.values[0] == 1.0 / 3.0

    def test_window_pools_before_dividing(self):
        records = [
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "negative", day=date(2021, 3, 2)),
        ]
        s = sb_series(records, tally_codes(records, "A", "B"), window_days=2)
        # day 2 pools all three mentions: (2 - 1) / 3, not a mean of daily values
        assert s.values[1] == pytest.approx(1.0 / 3.0)

    def test_empty_day_carries_forward(self):
        records = [
            mention("A", "positive", day=date(2021, 3, 1)),
            mention("A", "negative", day=date(2021, 3, 4)),
        ]
        s = sb_series(records, tally_codes(records, "A", "B"), window_days=1)
        assert list(s.values) == [1.0, 1.0, 1.0, -1.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no mentions"):
            sb_series([], tally_codes([], "A", "B"))

    def test_rejects_codes_of_other_length(self):
        records = [mention("A", "positive"), mention("B", "positive")]
        with pytest.raises(ValueError):
            sb_series(records, tally_codes(records[:1], "A", "B"))

    @staticmethod
    def assert_matches_reference(records, label_a, label_b, window_days):
        got = sb_series(records, tally_codes(records, label_a, label_b), window_days)
        want = reference_sb_series(records, label_a, label_b, window_days)
        assert (got.start, got.label) == (want.start, want.label)
        assert got.values.tobytes() == want.values.tobytes()

    def test_build_run_dir_corpus_matches_reference(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        (res,) = run_pipeline(cfg, through="sentiment").state.outlets.values()
        a, b = cfg.entities[0].label, cfg.entities[1].label
        for window_days in (1, cfg.window_days, 30):
            self.assert_matches_reference(res.mentions, a, b, window_days)
        assert res.sb_daily.values.tobytes() == reference_sb_series(
            res.mentions, a, b, cfg.window_days
        ).values.tobytes()

    def test_shuffled_mixed_mentions_match_reference(self):
        rng = random.Random(3)
        records = [
            mention(rng.choice("AB"), rng.choice(SENTIMENT_CLASSES),
                    day=date(2021, 3, 1 + rng.randrange(28)))
            for _ in range(700)
        ]
        for window_days in (1, 3, 7):
            self.assert_matches_reference(records, "A", "B", window_days)
            self.assert_matches_reference(records, "B", "A", window_days)


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
        out = per_topic_sb(records, coded(records), factors, "A", "B", min_mentions=1)
        assert out[0].value == 1.0  # both mentions: (1 + 1) / 2
        assert out[1].value == 1.0  # only a2's mention: 1 / 1
        assert out[0].tally.total == 2
        assert out[1].tally.total == 1

    def test_sparse_topic_reported_none(self):
        factors = self.factors([[1.0, 0.0]], ["a1"])
        records = [mention("A", "positive", art="a1")]
        out = per_topic_sb(records, coded(records), factors, "A", "B", min_mentions=2)
        assert out == [None, None]

    def test_unknown_articles_skipped(self):
        factors = self.factors([[1.0]], ["a1"])
        records = [
            mention("A", "positive", art="a1"),
            mention("B", "negative", art="missing"),
        ]
        out = per_topic_sb(records, coded(records), factors, "A", "B", min_mentions=1)
        assert out[0].tally.total == 1

    def test_threshold_validation(self):
        factors = self.factors([[1.0]], ["a1"])
        with pytest.raises(ValueError, match="membership_threshold"):
            per_topic_sb([], coded([]), factors, "A", "B", membership_threshold=0.0)

    def test_min_mentions_validation(self):
        factors = self.factors([[1.0]], ["a1"])
        records = [mention("A", "positive", art="a1")]
        for min_mentions in (0, -3):
            with pytest.raises(ValueError, match="min_mentions must be >= 1"):
                per_topic_sb(records, coded(records), factors, "A", "B", min_mentions=min_mentions)

    def test_rejects_codes_of_other_length(self):
        factors = self.factors([[1.0]], ["a1"])
        records = [mention("A", "positive", art="a1")] * 2
        with pytest.raises(ValueError, match="1 codes for 2 mentions"):
            per_topic_sb(records, coded(records[:1]), factors, "A", "B", min_mentions=1)


def reference_per_topic_sb(mentions, factors, label_a, label_b, threshold, min_mentions):
    """per_topic_sb as a loop over mentions x topics, one tally per topic."""
    row_of = {doc_id: j for j, doc_id in enumerate(factors.doc_ids)}
    shares = np.zeros_like(factors.H)
    row_sums = factors.H.sum(axis=1)
    nonzero = row_sums > 0
    shares[nonzero] = factors.H[nonzero] / row_sums[nonzero, None]
    per_topic = [[] for _ in range(factors.n_topics)]
    for m in mentions:
        j = row_of.get(m.article_id)
        if j is None:
            continue
        for i in range(factors.n_topics):
            if shares[j, i] >= threshold:
                per_topic[i].append(m)
    return [
        None if len(ms) < min_mentions
        else sentiment_bias(tally_mentions(ms, label_a, label_b))
        for ms in per_topic
    ]


class TestPerTopicSbAgainstLoop:
    def check(self, mentions, factors, label_a, label_b, threshold, min_mentions):
        codes = tally_codes(mentions, label_a, label_b)
        got = per_topic_sb(mentions, codes, factors, label_a, label_b, threshold, min_mentions)
        want = reference_per_topic_sb(mentions, factors, label_a, label_b, threshold, min_mentions)
        assert got == want
        for stat in got:
            if stat is not None:
                assert all(type(getattr(stat.tally, f)) is int for f in ("pos_a", "neu_b"))
        return got

    def test_build_run_dir_corpus(self, tmp_path):
        cfg = load_config(build_run_dir(tmp_path))
        res = run_pipeline(cfg, through="sentiment").state.outlets["outlet_one"]
        a, b = cfg.entities[0].label, cfg.entities[1].label
        for threshold, min_mentions in [(cfg.membership_threshold, cfg.min_topic_mentions),
                                        (0.2, 1), (0.6, 5), (1.0, 1)]:
            self.check(res.mentions, res.factors, a, b, threshold, min_mentions)

    def test_threshold_tie_counts_as_member(self):
        # shares 1/4, 1/4, 1/2 and 1/2, 1/4, 1/4 are exact: 0.25 is a tie
        factors = TestPerTopicSb().factors([[1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
                                           ["a1", "a2", "a3"])
        records = [
            mention("A", "positive", art="a1"),
            mention("B", "very_negative", art="a1"),
            mention("A", "neutral", art="a2"),
            mention("B", "positive", art="a2"),
            mention("A", "negative", art="a3"),
            mention("A", "positive", art="missing"),
        ]
        out = self.check(records, factors, "A", "B", 0.25, 1)
        assert [s.tally.total for s in out] == [4, 4, 4]
        assert self.check(records, factors, "A", "B", 0.5, 1)[1] is None
