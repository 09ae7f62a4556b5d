"""Property test of the final read check's distance against a plain DP."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcodec.bits import edit_distance_at_most

from helpers import reference_edit_distance

bit_arrays = st.lists(st.integers(0, 1), max_size=40).map(lambda xs: np.array(xs, dtype=np.uint8))


@settings(max_examples=400, deadline=None)
@given(bit_arrays, bit_arrays, st.integers(0, 6))
def test_edit_distance_at_most_matches_dp(a, b, limit):
    want = reference_edit_distance(a, b)
    got = edit_distance_at_most(a, b, limit)
    assert got == (want if want <= limit else None)


@settings(max_examples=200, deadline=None)
@given(bit_arrays, st.data())
def test_edit_distance_of_nearby_words(a, data):
    # random pairs are mostly far apart; a few edits of one word land inside the limit
    b = a.copy()
    for _ in range(data.draw(st.integers(0, 4))):
        if len(b) and data.draw(st.booleans()):
            b = np.delete(b, data.draw(st.integers(0, len(b) - 1)))
        else:
            b = np.insert(b, data.draw(st.integers(0, len(b))), data.draw(st.integers(0, 1)))
    limit = data.draw(st.integers(0, 6))
    want = reference_edit_distance(a, b)
    assert edit_distance_at_most(a, b, limit) == (want if want <= limit else None)
