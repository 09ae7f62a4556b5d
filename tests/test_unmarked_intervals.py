"""Interval marking from maximal agreement runs against the per-column walk
over the run-length array (``helpers.reference_unmarked_intervals``).

The reference is defined for ``last`` up to the column count; past it nothing
more can be marked, so there the marking must equal the reference at ``last``
= the column count.
"""

import random

import numpy as np
import pytest

from rtcodec.bits import unmarked_intervals
from rtcodec.editsync import edit_margin
from rtcodec.params import CodeParams

from helpers import in_model_reads, reference_unmarked_intervals


def assert_marking_matches(rows, margin, min_run, last):
    want = reference_unmarked_intervals(rows, margin, min_run, min(last, rows.shape[1]))
    assert unmarked_intervals(rows, margin, min_run, last) == want, (rows.shape, margin, min_run, last)


def low_entropy_rows(rng, n_rows, cols):
    """Rows that agree but for scattered or bursty disagreeing columns."""
    period = rng.integers(0, 2, int(rng.integers(1, 5)), dtype=np.uint8)
    rows = np.tile(np.resize(period, cols), (n_rows, 1))
    density = rng.choice([0.0, 0.001, 0.01, 0.05, 0.3])
    for _ in range(int(rng.integers(0, 4))):  # bursts
        lo = int(rng.integers(0, cols + 1))
        rows[int(rng.integers(1, n_rows)), lo : lo + int(rng.integers(1, 40))] ^= 1
    flip = rng.random((n_rows - 1, cols)) < density
    rows[1:] ^= flip.astype(np.uint8)
    return rows


def test_marking_matches_the_column_walk_on_random_rows():
    rng = np.random.default_rng(23)
    for _ in range(400):
        cols = int(rng.choice([0, 1, 2, int(rng.integers(0, 200)), int(rng.integers(0, 3001))]))
        rows = low_entropy_rows(rng, int(rng.integers(2, 4)), cols)
        margin, min_run = int(rng.integers(0, 11)), int(rng.integers(1, 31))
        for last in {0, 1, cols, cols + 5, int(rng.integers(0, cols + 6))}:
            assert_marking_matches(rows, margin, min_run, last)


@pytest.mark.parametrize("cols", [0, 1, 5, 64, 1000])
def test_marking_of_rows_that_all_agree_or_all_disagree(cols):
    agree = np.zeros((2, cols), dtype=np.uint8)
    disagree = np.stack([agree[0], agree[0] ^ 1])
    for rows in (agree, disagree):
        for margin in (0, 1, 3, 10):
            for min_run in (1, 2, 7, 30):
                for last in (0, 1, cols // 2, cols, cols + 5):
                    assert_marking_matches(rows, margin, min_run, last)


def test_marking_with_last_before_the_first_disagreement():
    rng = np.random.default_rng(5)
    for first in (0, 1, 10, 100, 999):
        rows = np.tile(rng.integers(0, 2, 1200, dtype=np.uint8), (3, 1))
        rows[2, first::37] ^= 1
        for last in sorted({0, first // 2, max(first - 1, 0), first}):
            for margin, min_run in ((0, 1), (2, 5), (10, 21)):
                assert_marking_matches(rows, margin, min_run, last)


@pytest.mark.parametrize(
    "make",
    [lambda: CodeParams.deletion(4096, 4, 2), lambda: CodeParams.deletion(1024, 3, 3), lambda: CodeParams.edit(1024, 4, 2)],
    ids=["deletion-4096-4-2", "deletion-1024-3-3", "edit-1024-4-2"],
)
def test_marking_of_real_reads_with_the_decoders_arguments(make):
    params = make()
    for seed in range(4):
        _, rows = in_model_reads(params, random.Random(f"marking:{params.kind}:{seed}"))
        if params.kind == "deletion":
            t_max = params.geometry.t_max
            # as delsync.identify_intervals passes them
            args = (t_max, 2 * t_max + params.T + 1, min(params.n + 1, rows.shape[1]))
        else:
            margin = edit_margin(params)
            # as editsync.identify_edit_intervals passes them
            args = (margin, 2 * margin + 1, rows.shape[1])
        assert_marking_matches(rows, *args)
