import json
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from newslens import corpus
from newslens.corpus import (
    EntitySpec,
    PollRecord,
    daily_spread,
    load_articles,
    load_polls,
    named_entities,
    tokenize,
)
from newslens.sentiment import default_lexicon, mention_records
from newslens.vectorize import tfidf_matrix

from conftest import article_row, make_article, write_articles


class TestEntitySpec:
    def test_case_insensitive_word_boundary(self):
        e = EntitySpec(label="Arden", aliases=("Arden",))
        assert e.matches("ARDEN spoke today")
        assert e.matches("about arden.")
        assert not e.matches("gardens are green")
        assert not e.matches("ardent supporters")

    def test_multiple_aliases(self):
        e = EntitySpec(label="A", aliases=("Arden", "the governor"))
        assert e.matches("The Governor visited")
        assert e.matches("Arden visited")

    def test_nfc_normalization(self):
        # decomposed e + combining acute on either side matches the composed form
        decomposed = "Rene\u0301"
        composed = "Ren\u00e9"
        e = EntitySpec(label="R", aliases=(decomposed,))
        assert e.matches(composed + " arrived")
        e2 = EntitySpec(label="R", aliases=(composed,))
        assert e2.matches(decomposed + " arrived")

    def test_empty_alias_list_rejected(self):
        with pytest.raises(ValueError):
            EntitySpec(label="X", aliases=())

    @pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u3000"])
    def test_blank_alias_rejected(self, blank):
        with pytest.raises(ValueError, match="entity 'Arden' has a blank alias"):
            EntitySpec(label="Arden", aliases=("Arden", blank))


def count_normalize(monkeypatch) -> list[str]:
    """Record each text ``corpus`` NFC-normalizes."""
    calls = []
    real = corpus.unicodedata.normalize

    def counting(form, text):
        calls.append(text)
        return real(form, text)

    monkeypatch.setattr(corpus, "unicodedata", SimpleNamespace(normalize=counting))
    return calls


class TestNamedEntities:
    def test_in_entity_order(self, entity_pair):
        arden, briggs = entity_pair
        assert tuple(named_entities("Briggs met Arden.", entity_pair)) == (arden, briggs)
        assert tuple(named_entities("Briggs met Arden.", (briggs, arden))) == (briggs, arden)
        assert tuple(named_entities("Briggs left.", entity_pair)) == (briggs,)
        assert tuple(named_entities("Nobody came.", entity_pair)) == ()

    def test_normalizes_once_on_the_call(self, entity_pair, monkeypatch):
        calls = count_normalize(monkeypatch)
        named = named_entities("Arden met Briggs.", entity_pair)
        assert calls == ["Arden met Briggs."]
        assert len(tuple(named)) == 2
        assert calls == ["Arden met Briggs."]

    def test_stops_at_first_entity_for_any(self, entity_pair):
        class Unsearchable:
            def search(self, text):
                raise AssertionError("searched past the first entity named")

        arden = entity_pair[0]
        late = EntitySpec(label="Late", aliases=("late",))
        object.__setattr__(late, "_pattern", Unsearchable())
        assert any(named_entities("Arden spoke.", (arden, late)))

    def test_matches_is_the_same_rule(self, entity_pair, monkeypatch):
        calls = []
        real = corpus.named_entities

        def counting(text, entities):
            calls.append((text, entities))
            return real(text, entities)

        monkeypatch.setattr(corpus, "named_entities", counting)
        arden = entity_pair[0]
        assert arden.matches("ARDEN spoke")
        assert not arden.matches("Briggs spoke")
        assert calls == [("ARDEN spoke", (arden,)), ("Briggs spoke", (arden,))]


class TestLoadArticles:
    def test_round_trip_and_filter(self, tmp_path, entity_pair):
        rows = [
            article_row("a1"),
            article_row("a2", title="Quiet day", body="Nothing relevant here at all."),
            article_row("a3", body="Briggs was dreadful."),
        ]
        p = tmp_path / "articles.jsonl"
        write_articles(p, rows)
        arts = load_articles(p, entity_pair)
        assert [a.id for a in arts] == ["a1", "a3"]

    def test_preserves_input_order(self, tmp_path, entity_pair):
        rows = [article_row("b2"), article_row("b1"), article_row("b3")]
        p = tmp_path / "articles.jsonl"
        write_articles(p, rows)
        arts = load_articles(p, entity_pair)
        assert [a.id for a in arts] == ["b2", "b1", "b3"]

    def test_reload_of_output_is_stable(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(p, [article_row("a1"), article_row("a2", body="Briggs won.")])
        first = load_articles(p, entity_pair)
        q = tmp_path / "again.jsonl"
        write_articles(
            q,
            [
                {
                    "id": a.id,
                    "outlet": a.outlet,
                    "date": a.date.isoformat(),
                    "title": a.title,
                    "body": a.body,
                }
                for a in first
            ],
        )
        second = load_articles(q, entity_pair)
        assert first == second

    def test_malformed_json_names_line(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        p.write_text(json.dumps(article_row("a1")) + "\n{bad json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_articles(p, entity_pair)

    def test_missing_key_rejected(self, tmp_path, entity_pair):
        row = article_row("a1")
        del row["title"]
        p = tmp_path / "articles.jsonl"
        write_articles(p, [row])
        with pytest.raises(ValueError, match="expected keys"):
            load_articles(p, entity_pair)

    def test_extra_key_rejected(self, tmp_path, entity_pair):
        row = article_row("a1")
        row["extra"] = 1
        p = tmp_path / "articles.jsonl"
        write_articles(p, [row])
        with pytest.raises(ValueError):
            load_articles(p, entity_pair)

    def test_duplicate_id_rejected(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(p, [article_row("a1"), article_row("a1")])
        with pytest.raises(ValueError, match="duplicate"):
            load_articles(p, entity_pair)

    def test_bad_date_rejected(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(p, [article_row("a1", day="03/01/2021")])
        with pytest.raises(ValueError, match="date"):
            load_articles(p, entity_pair)

    def test_empty_body_rejected(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(p, [article_row("a1", body="")])
        with pytest.raises(ValueError, match="body"):
            load_articles(p, entity_pair)

    def test_no_survivors_rejected(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(
            p, [article_row("a1", title="Quiet day", body="No tracked names here.")]
        )
        with pytest.raises(ValueError, match="no article"):
            load_articles(p, entity_pair)

    def test_normalizes_each_article_once(self, tmp_path, entity_pair, monkeypatch):
        path = tmp_path / "a.jsonl"
        write_articles(path, [
            article_row("a1", title="Arden", body="Briggs spoke."),
            article_row("a2", title="Weather", body="Rain again."),
            article_row("a3", title="Polls", body="Arden leads."),
        ])
        calls = count_normalize(monkeypatch)
        kept = load_articles(path, entity_pair)
        assert [a.id for a in kept] == ["a1", "a3"]
        assert calls == ["Arden\nBriggs spoke.", "Weather\nRain again.", "Polls\nArden leads."]

    def test_title_match_is_enough(self, tmp_path, entity_pair):
        p = tmp_path / "articles.jsonl"
        write_articles(p, [article_row("a1", title="Arden rally", body="It rained.")])
        arts = load_articles(p, entity_pair)
        assert len(arts) == 1


class TestLoadPolls:
    def write(self, path, body: str) -> None:
        path.write_text("date,pollster,pct_a,pct_b\n" + body, encoding="utf-8")

    def test_sorted_by_date(self, tmp_path):
        p = tmp_path / "polls.csv"
        self.write(p, "2021-03-03,x,50,40\n2021-03-01,y,48,42\n")
        polls = load_polls(p)
        assert [r.date.isoformat() for r in polls] == ["2021-03-01", "2021-03-03"]
        assert polls[0].spread == 6.0

    def test_stable_within_day(self, tmp_path):
        p = tmp_path / "polls.csv"
        self.write(p, "2021-03-01,first,50,40\n2021-03-01,second,48,42\n")
        polls = load_polls(p)
        assert [r.pollster for r in polls] == ["first", "second"]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "polls.csv"
        p.write_text("day,who,a,b\n2021-03-01,x,50,40\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_polls(p)

    def test_out_of_range_pct(self, tmp_path):
        p = tmp_path / "polls.csv"
        self.write(p, "2021-03-01,x,101,40\n")
        with pytest.raises(ValueError, match="outside"):
            load_polls(p)

    def test_sum_above_hundred(self, tmp_path):
        p = tmp_path / "polls.csv"
        self.write(p, "2021-03-01,x,60,41\n")
        with pytest.raises(ValueError, match="exceeds"):
            load_polls(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "polls.csv"
        self.write(p, "2021-03-01,x,fifty,40\n")
        with pytest.raises(ValueError, match="numeric"):
            load_polls(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "polls.csv"
        p.write_text("date,pollster,pct_a,pct_b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no poll"):
            load_polls(p)


class TestDailySpread:
    def test_window_one_equals_raw_daily(self):
        polls = [
            PollRecord(date(2021, 3, 1), "x", 50.0, 40.0),
            PollRecord(date(2021, 3, 2), "x", 48.0, 44.0),
            PollRecord(date(2021, 3, 3), "x", 47.0, 45.0),
        ]
        s = daily_spread(polls, window_days=1)
        assert s.start == date(2021, 3, 1)
        assert np.allclose(s.values, [10.0, 4.0, 2.0])

    def test_multiple_polls_averaged(self):
        polls = [
            PollRecord(date(2021, 3, 1), "x", 50.0, 40.0),
            PollRecord(date(2021, 3, 1), "y", 44.0, 42.0),
        ]
        s = daily_spread(polls, window_days=1)
        assert s.values[0] == pytest.approx(6.0)

    def test_carry_forward_gap(self):
        polls = [
            PollRecord(date(2021, 3, 1), "x", 50.0, 40.0),
            PollRecord(date(2021, 3, 5), "x", 45.0, 45.0),
        ]
        s = daily_spread(polls, window_days=2)
        # day 2 window covers day 1 poll; days 3-4 carry; day 5 new value
        assert np.allclose(s.values, [10.0, 10.0, 10.0, 10.0, 0.0])

    def test_trailing_window_average(self):
        polls = [
            PollRecord(date(2021, 3, 1), "x", 50.0, 40.0),
            PollRecord(date(2021, 3, 2), "x", 46.0, 42.0),
        ]
        s = daily_spread(polls, window_days=7)
        assert s.values[1] == pytest.approx(7.0)


class TestArticleSentences:
    def test_title_is_sentence_zero(self):
        art = make_article(title="Big news", body="First thing. Second thing.")
        assert art.sentences == ["Big news", "First thing.", "Second thing."]

    def test_blank_title_skipped(self):
        art = make_article(title="  ", body="Only thing.")
        assert art.sentences == ["Only thing."]


class TestArticleTokens:
    def test_tokens_of_title_and_body(self):
        # the newline keeps "vote" and "Arden" apart
        art = make_article(title="Harbor-tunnel vote", body="Arden won.\nCafé 2016 opened.")
        tokens = tokenize(art.title + "\n" + art.body)
        assert tokens == ["harbor", "tunnel", "vote", "arden", "won", "café", "opened"]
        assert tfidf_matrix([art], min_df=1).doc_lengths.tolist() == [len(tokens)]


def mention_counts(articles, entities, window_days):
    """The mention-count series of the one mention reader, ``mention_records``."""
    series, _ = mention_records(articles, entities, default_lexicon(), window_days=window_days)
    return series


class TestMentionCounts:
    def test_counts_sentences_and_title(self, entity_pair):
        art = make_article(
            body="Arden spoke. Arden smiled. Briggs watched.",
            title="Arden at the rally",
        )
        s = mention_counts([art], entity_pair, window_days=1)
        assert set(s) == {"Arden", "Briggs"}
        assert s["Arden"].values[0] == 3.0  # title + two body sentences
        assert s["Briggs"].values[0] == 1.0
        assert s["Arden"].label == "mentions_Arden"

    def test_each_entity_matches_counting_it_alone(self, entity_pair):
        arts = [
            make_article(id="a1", body="Arden and Briggs met. Briggs left.", title="Talks"),
            make_article(id="a2", day=date(2021, 3, 3), body="Nobody spoke. Arden waved."),
        ]
        both = mention_counts(arts, entity_pair, window_days=2)
        for entity in entity_pair:
            alone = mention_counts(arts, (entity,), window_days=2)[entity.label]
            assert both[entity.label].start == alone.start
            assert np.array_equal(both[entity.label].values, alone.values)

    def test_additive_over_partition(self, entity_pair):
        arts = [
            make_article(id=f"a{i}", day=date(2021, 3, 1 + i % 3))
            for i in range(12)
        ]
        whole = mention_counts(arts, entity_pair, window_days=1)
        part1 = mention_counts(arts[:5], entity_pair, window_days=1)
        part2 = mention_counts(arts[5:], entity_pair, window_days=1)

        for label, series in whole.items():
            total = np.zeros(len(series))
            for part in (part1[label], part2[label]):
                off = (part.start - series.start).days
                total[off : off + len(part)] += part.values
            assert np.allclose(series.values, total)

    def test_zero_days_in_span(self, entity_pair):
        arts = [
            make_article(id="a1", day=date(2021, 3, 1)),
            make_article(id="a2", day=date(2021, 3, 4)),
        ]
        s = mention_counts(arts, entity_pair, window_days=1)["Arden"]
        assert len(s) == 4
        assert s.values[1] == 0.0 and s.values[2] == 0.0

    def test_counts_the_sentence_not_its_mentions(self, entity_pair):
        # each sentence names both; the second splits into three clauses
        art = make_article(
            title="", body="Arden met Briggs. Arden won, Arden smiled, and Briggs left."
        )
        series, records = mention_records([art], entity_pair, default_lexicon(), window_days=1)
        assert series["Arden"].values[0] == 2.0 and series["Briggs"].values[0] == 2.0
        assert [r.entity for r in records] == ["Arden", "Briggs", "Arden", "Arden", "Briggs"]

    def test_no_articles_rejected(self, entity_pair):
        with pytest.raises(ValueError, match="no articles"):
            mention_counts([], entity_pair, window_days=1)
