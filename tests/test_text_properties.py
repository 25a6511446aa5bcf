"""Property tests: the text rules and the mention reader against the former code.

The entity pattern, the sentence splitter and the mention reader were
rewritten for speed; the former versions are kept here as oracles, and
each must agree with its rewrite exactly.
"""

import re
import string
import unicodedata
from datetime import date, timedelta

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from newslens import corpus
from newslens.corpus import Article, EntitySpec, split_sentences, tokenize
from newslens.sentiment import SENTIMENT_CLASSES, Lexicon, mention_records

from test_sentiment import reference_mention_counts, reference_mention_records


def reference_entity_pattern(aliases):
    """The lookbehind-first pattern ``EntitySpec`` compiled before."""
    parts = "|".join(re.escape(unicodedata.normalize("NFC", a)) for a in aliases)
    return re.compile(rf"(?<!\w)(?:{parts})(?!\w)", re.IGNORECASE)


def reference_split_sentences(text):
    """The splitter that walked whitespace with ``str.isspace``."""
    n = len(text)
    bounds = []
    for m in re.finditer(r"[.!?]+", text):
        j = m.end()
        if j >= n or not text[j].isspace():
            continue
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k >= n or not text[k].isupper():
            continue
        if "." in m.group():
            word = corpus._word_before(text, m.start())
            if word and (word.lower() in corpus._ABBREVIATIONS or len(word) == 1):
                continue
        bounds.append(j)
    out = []
    start = 0
    for b in bounds + [n]:
        piece = text[start:b].strip()
        if piece:
            out.append(piece)
        start = b
    return out


# Characters whose case folding ``re`` treats specially (long s, Kelvin
# sign, dotted and dotless i, sharp s, the sigmas), a decomposed accent,
# digits, underscore, punctuation and whitespace including \x1c-\x1f.
_ALIAS_CHARS = "aAsSſkKKiIİıßẞσΣςeé́ .,-'_2"
_TEXT_CHARS = _ALIAS_CHARS + "bB\t\n\x1c\x1d\x1e\x1f !?;"
aliases = st.lists(
    st.text(_ALIAS_CHARS, min_size=1, max_size=5).filter(str.strip), min_size=1, max_size=3
)


class TestAliasFirstPattern:
    @settings(max_examples=600)
    @given(aliases=aliases, text=st.text(_TEXT_CHARS, max_size=30))
    def test_spans_match_lookbehind_first_pattern(self, aliases, text):
        old = reference_entity_pattern(aliases)
        new = EntitySpec("X", tuple(aliases))._pattern
        for t in (text, unicodedata.normalize("NFC", text)):
            assert [m.span() for m in new.finditer(t)] == [m.span() for m in old.finditer(t)]

    @settings(max_examples=300)
    @given(aliases=aliases, data=st.data())
    def test_planted_aliases_match_alike(self, aliases, data):
        # Texts built from the aliases themselves, so that matches are common.
        pieces = st.sampled_from(aliases) | st.text(_TEXT_CHARS, max_size=3)
        text = "".join(data.draw(st.lists(pieces, max_size=8)))
        old = reference_entity_pattern(aliases)
        new = EntitySpec("X", tuple(aliases))._pattern
        assert [m.span() for m in new.finditer(text)] == [m.span() for m in old.finditer(text)]

    def test_multi_word_alias_and_overlap(self):
        # The longer alias wins where it fits, and backtracks to the shorter
        # one where a word character follows it; none matches after "x".
        e = EntitySpec("B", ("Briggs, Jr.", "Briggs", "Jr"))
        text = "Briggs, Jr. met xBriggs, Jr. and Briggs, Jr.x, JR."
        old = reference_entity_pattern(e.aliases)
        assert [m.span() for m in e._pattern.finditer(text)] == [
            m.span() for m in old.finditer(text)
        ] == [(0, 11), (25, 27), (33, 39), (41, 43), (47, 49)]


# Printable ASCII, and characters that NFC or lowercasing moves into ASCII
# (Kelvin sign to K, Greek question mark to ";") or that stay outside it
# while next to it: dotted capital I (lowercases to i and a combining dot),
# long s, superscript two, one half and the en quad (NFC: en space).
_TOKEN_CHARS = string.printable + "\u212a\u037e\u0130\u017f\u00b2\u00bd\u2000"


class TestAsciiTokenPath:
    @settings(max_examples=600)
    @given(text=st.text(string.printable, max_size=40) | st.text(_TOKEN_CHARS, max_size=40))
    def test_matches_unicode_pattern(self, text):
        want = corpus._TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())
        assert tokenize(text) == want

    def test_text_ascii_once_lowered_skips_the_unicode_pattern(self, monkeypatch):
        monkeypatch.setattr(corpus, "_TOKEN_RE", None)
        # NFC maps the Kelvin sign to "K", so the lowered text is ASCII.
        assert tokenize("\u212aelvin x2y_z") == ["kelvin"]

    def test_non_ascii_examples(self):
        # "İ" lowercases to "i" and a combining dot, which splits the run.
        assert tokenize("\u0130stanbul \u017fun x\u00b2y") == ["stanbul", "\u017fun", "x\u00b2y"]


_SENTENCE_CHARS = "aAbBzZİΣÉĳǅ1 .!?\t\n\x1c\x1d\x1e\x1f  "
sentence_words = st.sampled_from(
    ["Mr.", "dr.", "Approx.", "J.", "K.", "e.g.", "no!", "etc.", "U.S.", "Sen.", "Dr", "end."]
)


class TestOneRegexSplitter:
    @settings(max_examples=600)
    @given(text=st.text(_SENTENCE_CHARS, max_size=40))
    def test_matches_isspace_walk(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    @settings(max_examples=300)
    @given(parts=st.lists(sentence_words | st.text(_SENTENCE_CHARS, max_size=6), max_size=10))
    def test_abbreviations_and_initials_match(self, parts):
        text = " ".join(parts)
        assert split_sentences(text) == reference_split_sentences(text)

    def test_separator_whitespace(self):
        # \x1c-\x1f count as whitespace for str.isspace and for \s alike.
        text = "One.\x1cTwo.\x1fThree. Four. five"
        assert split_sentences(text) == ["One.", "Two.", "Three.", "Four. five"]
        assert reference_split_sentences(text) == split_sentences(text)


# Words for random articles: both entities under several aliases and cases
# (one alias decomposed, one with a comma), near misses, lexicon terms and
# markers (one term composed and decomposed), conjunctions the clause
# splitter cuts at, an abbreviation and an initial.
_WORDS = [
    "Arden", "ARDEN", "arden's", "Ardent", "Rene\u0301", "René", "Briggs",
    "Briggs, Jr.", "xBriggs", "good", "GREAT", "bad", "awful", "néfaste",
    "ne\u0301faste", "very", "not", "slightly", "and", "but", "or", "so", "the",
    "crowd", "Mr.", "J.", ",", ";",
]
_LEXICON = Lexicon(
    valence={"good": 1, "great": 2, "bad": -1, "awful": -2, "néfaste": -2},
    negators=frozenset({"not", "never"}),
    intensifiers=frozenset({"very"}),
    diminishers=frozenset({"slightly"}),
)
_ENDS = [".", "!", "?", "?!", "", "..."]
_ENTITIES = (
    EntitySpec("Arden", ("Arden", "René")),
    EntitySpec("Briggs", ("Briggs, Jr.", "Briggs")),
)


@st.composite
def corpora(draw):
    sentence = st.builds(
        lambda words, end: " ".join(words) + end,
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=7),
        st.sampled_from(_ENDS),
    )
    text = st.lists(sentence, max_size=5).map(" ".join)
    n = draw(st.integers(1, 6))
    start = date(2021, 3, 1)
    articles = [
        Article(
            id=f"a{i}",
            outlet="o",
            date=start + timedelta(days=draw(st.integers(0, 9))),
            title=draw(text),
            body=draw(text.filter(str.strip)),
        )
        for i in range(n)
    ]
    keys = st.tuples(st.sampled_from([a.id for a in articles]), st.integers(0, 5))
    labels = draw(st.none() | st.dictionaries(keys, st.sampled_from(SENTIMENT_CLASSES)))
    return articles, labels


class TestMentionReader:
    @settings(max_examples=150)
    @given(corpus_and_labels=corpora(), window_days=st.integers(1, 4))
    def test_matches_reference_reader(self, corpus_and_labels, window_days):
        articles, labels = corpus_and_labels
        series, records = mention_records(articles, _ENTITIES, _LEXICON, labels, window_days)
        expected = reference_mention_counts(articles, _ENTITIES, window_days)
        assert list(series) == list(expected)
        for label, want in expected.items():
            got = series[label]
            assert (got.start, got.label) == (want.start, want.label)
            assert got.values.tobytes() == want.values.tobytes()
        assert records == reference_mention_records(articles, _ENTITIES, _LEXICON, labels)
