"""Period-run statistics and the period-capping transform."""

import random

import numpy as np
import pytest

from rtcodec.bits import as_bits, bits_from_int
from rtcodec.errors import NotInImage
from rtcodec.periodicity import (
    cap_periods,
    longest_periodic_run,
    max_periodic_run,
    period_cap,
    uncap_periods,
)

from helpers import oracle_longest_periodic_run


def test_worked_run_lengths():
    c = [1, 1, 0, 1, 1, 0, 1, 0, 0]
    assert longest_periodic_run(c, 1) == 2
    assert longest_periodic_run(c, 2) == 4
    assert longest_periodic_run(c, 3) == 7
    assert max_periodic_run(c, 3) == 7


def test_constant_sequence_run():
    for m in (1, 5, 12):
        assert longest_periodic_run([0] * m, 1) == m


def test_runs_match_naive_scan():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 24)
        c = "".join(rng.choice("01") for _ in range(n))
        p = rng.randrange(1, n + 1)
        assert longest_periodic_run(c, p) == oracle_longest_periodic_run(c, p)


def test_cap_without_periodic_windows_appends_terminator():
    # short tracks cannot host a long low-period window, so only the marker lands
    c = as_bits("10110010")
    k = 2
    f = cap_periods(c, k)
    assert f.tolist() == c.tolist() + [1, 1, 0]


def test_cap_all_zero_track_frozen_value():
    # hand-replayed: two excisions, each appending (0, 0, 0001, 00)
    f = cap_periods([0] * 16, 1)
    assert "".join(map(str, f)) == "100000010000000100"
    assert np.array_equal(uncap_periods(f, 1, 16), np.zeros(16, dtype=np.uint8))


def test_cap_output_length_and_bound_random():
    rng = random.Random(7)
    for n in (256, 1024):
        for _ in range(60):
            k = rng.randrange(1, 4)
            c = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
            f = cap_periods(c, k)
            assert len(f) == n + k + 1
            assert max_periodic_run(f, k) <= period_cap(n, k)
            assert np.array_equal(uncap_periods(f, k, n), c)


def test_cap_adversarial_periodic_inputs():
    for n, k in ((64, 1), (64, 2), (48, 3)):
        for pattern in ("0", "1", "01", "0011", "0101"):
            c = (pattern * n)[:n]
            f = cap_periods(c, k)
            assert len(f) == n + k + 1
            assert max_periodic_run(f, k) <= period_cap(n, k)
            assert np.array_equal(uncap_periods(f, k, n), as_bits(c))


def test_cap_exhaustive_small_injective():
    for k in (1, 2):
        for n in range(1, 11):
            seen = {}
            for v in range(1 << n):
                c = bits_from_int(v, n)
                f = cap_periods(c, k)
                assert len(f) == n + k + 1
                assert max_periodic_run(f, k) <= period_cap(n, k)
                key = f.tobytes()
                assert key not in seen, f"collision n={n} k={k}: {v} vs {seen[key]}"
                seen[key] = v
                assert np.array_equal(uncap_periods(f, k, n), c)


def test_uncap_rejects_all_ones():
    n, k = 16, 1
    with pytest.raises(NotInImage):
        uncap_periods(np.ones(n + k + 1, dtype=np.uint8), k, n)


def test_uncap_rejects_wrong_length():
    with pytest.raises(NotInImage):
        uncap_periods(np.zeros(10, dtype=np.uint8), 1, 16)


def test_uncap_rejects_mutated_image():
    # corrupting a valid image trips a structural check for most positions;
    # flips that survive (e.g. moving an all-zero window inside an all-zero
    # region) still decode to a well-formed track
    f = cap_periods([0] * 16, 1)
    rejected = 0
    for pos in range(len(f)):
        g = f.copy()
        g[pos] ^= 1
        try:
            out = uncap_periods(g, 1, 16)
            assert len(out) == 16
        except NotInImage:
            rejected += 1
    assert rejected >= len(f) // 2
