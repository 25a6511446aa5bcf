"""Property tests: the bootstrap depends on the mention counts alone."""

from datetime import date

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from newslens.bootstrap import bootstrap_sb
from newslens.sentiment import MentionRecord, tally_mentions

CLASSES = ("very_positive", "positive", "neutral", "negative", "very_negative")

mention = st.builds(
    MentionRecord,
    article_id=st.just("a1"),
    date=st.just(date(2021, 3, 1)),
    entity=st.sampled_from(("A", "B")),
    sentence=st.just("s"),
    sentiment=st.sampled_from(CLASSES),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mentions=st.lists(mention, min_size=1, max_size=60),
       seed=st.integers(0, 2**32 - 1))
def test_reordering_leaves_result_identical(data, mentions, seed):
    shuffled = data.draw(st.permutations(mentions))
    a = bootstrap_sb(tally_mentions(mentions, "A", "B"), n_resamples=200, seed=seed)
    b = bootstrap_sb(tally_mentions(shuffled, "A", "B"), n_resamples=200, seed=seed)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from([
        (("A", "neutral"), 0.0), (("B", "neutral"), 0.0),
        (("A", "positive"), 1.0), (("B", "very_negative"), 1.0),
        (("A", "negative"), -1.0), (("B", "very_positive"), -1.0),
    ]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_value_class_collapses_to_point(pair, n, seed):
    (entity, cls), value = pair
    m = MentionRecord("a1", date(2021, 3, 1), entity, "s", cls)
    res = bootstrap_sb(tally_mentions([m] * n, "A", "B"), n_resamples=100, seed=seed)
    assert res.point == value
    assert res.ci_low == res.ci_high == value
    assert res.stderr == 0.0
    assert res.p_sign == (1.0 if value <= 0.0 else 0.0)
