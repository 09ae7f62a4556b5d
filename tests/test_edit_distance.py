"""The k-edit check (``edit_distance_at_most``): short words against a plain
DP, long words and real codeword/read pairs against the same search with every
slide one full-length comparison."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcodec.bits import edit_distance_at_most
from rtcodec.params import CodeParams

from helpers import in_model_reads, reference_edit_distance, reference_edit_distance_at_most

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


# Long inputs, against the search with full-length slides. The check slides in
# chunks of 64, 256, 1024, ... columns, which end at these offsets of a slide.
CHUNK_ENDS = (64, 320, 1344, 5440, 21824)


@pytest.mark.parametrize(
    "make", [lambda: CodeParams.deletion(4096, 4, 2), lambda: CodeParams.edit(1024, 4, 2)], ids=["deletion", "edit"]
)
def test_k_edit_check_on_real_reads_matches_full_slides(make):
    params = make()
    results = []
    for seed in range(3):
        rng = random.Random(f"k-edit check:{params.kind}:{seed}")
        cw, rows = in_model_reads(params, rng)
        for row in rows:
            for flips in range(4):
                read = row.copy()
                # extra flips far into the read, past what an in-model read holds
                for p in rng.sample(range(len(read) // 2, len(read)), flips):
                    read[p] ^= 1
                for limit in range(params.k + 2):
                    got = edit_distance_at_most(cw, read, limit)
                    assert got == reference_edit_distance_at_most(cw, read, limit), (flips, limit)
                    results.append(got)
    assert None in results and any(r is not None for r in results)


@pytest.mark.parametrize("end", CHUNK_ENDS)
def test_k_edit_check_with_one_mismatch_at_each_chunk_boundary(end):
    rng = np.random.default_rng(end)
    a = rng.integers(0, 2, end + 200, dtype=np.uint8)
    for p in (end - 1, end, end + 1):
        flipped = a.copy()
        flipped[p] ^= 1
        for b in (flipped, np.delete(a, p), np.insert(a, p, 1 - a[p])):
            for limit in range(4):
                assert edit_distance_at_most(a, b, limit) == reference_edit_distance_at_most(a, b, limit), (p, limit)
                assert edit_distance_at_most(b, a, limit) == reference_edit_distance_at_most(b, a, limit), (p, limit)


@pytest.mark.parametrize("pattern", [(0,), (0, 1)], ids=["all-zero", "alternating"])
def test_k_edit_check_on_periodic_tracks(pattern):
    # on a periodic track every diagonal that keeps the period slides far
    rng = random.Random(f"periodic:{pattern}")
    a = np.resize(np.array(pattern, dtype=np.uint8), 3000)
    for _ in range(30):
        b = a.copy()
        for _ in range(rng.randrange(7)):
            if rng.random() < 0.5:
                b = np.delete(b, rng.randrange(len(b)))
            else:
                b = np.insert(b, rng.randrange(len(b) + 1), rng.randrange(2))
        for limit in range(7):
            assert edit_distance_at_most(a, b, limit) == reference_edit_distance_at_most(a, b, limit)


@st.composite
def low_entropy_pairs(draw):
    period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    a = np.resize(np.array(period, dtype=np.uint8), draw(st.integers(0, 3000)))
    for p in draw(st.lists(st.integers(0, max(len(a) - 1, 0)), max_size=4)) if len(a) else ():
        a[p] ^= 1
    limit = draw(st.integers(0, 5))
    b = a.copy()
    for _ in range(draw(st.integers(0, limit + 2))):
        if len(b) and draw(st.booleans()):
            b = np.delete(b, draw(st.integers(0, len(b) - 1)))
        else:
            b = np.insert(b, draw(st.integers(0, len(b))), draw(st.integers(0, 1)))
    return a, b, limit


@settings(max_examples=150, deadline=None)
@given(low_entropy_pairs())
def test_k_edit_check_on_long_low_entropy_words(pair):
    a, b, limit = pair
    assert edit_distance_at_most(a, b, limit) == reference_edit_distance_at_most(a, b, limit)
