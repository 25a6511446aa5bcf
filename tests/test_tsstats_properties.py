"""Property tests: the slope test's Student's t tail is a two-sided tail."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from newslens.tsstats import _student_t_tail

t_values = st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(df=st.integers(1, 2000), t=t_values, u=t_values)
def test_tail_is_even_bounded_and_falls_with_abs_t(df, t, u):
    p = _student_t_tail(t, df)
    assert 0.0 <= p <= 1.0
    assert _student_t_tail(-t, df) == p
    near, far = sorted((abs(t), abs(u)))
    # Rounding can lift a value past its neighbour's by a few parts in
    # 1e14; the accuracy the tail is held to is 1e-12.
    assert _student_t_tail(far, df) <= _student_t_tail(near, df) * (1.0 + 1e-12)
