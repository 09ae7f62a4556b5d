"""Channel model: read matrices, admissibility, ball enumeration, track files."""

import random
from itertools import combinations

import numpy as np
import pytest

from rtcodec.bits import format_track, parse_track
from rtcodec.errors import BudgetExceeded, InadmissiblePattern
from rtcodec.model import (
    BitTrack,
    DeletionPattern,
    EditPattern,
    HeadGeometry,
    apply_deletions,
    apply_edits,
    enumerate_deletion_ball,
)

from helpers import (
    bits_str,
    oracle_edit_matrix,
    oracle_read_matrix,
    reference_sample_deletion_pattern,
    sample_deletions,
)

C10 = BitTrack([1, 1, 0, 1, 0, 0, 0, 1, 0, 1])
G12 = HeadGeometry((1, 2))


def test_three_head_deletion_matrix():
    D = apply_deletions(C10, DeletionPattern((2, 5, 7)), G12)
    assert D.rows.tolist() == [
        [1, 0, 1, 0, 1, 0, 1],
        [1, 1, 1, 0, 0, 0, 1],
        [1, 1, 0, 1, 0, 0, 0],
    ]


def test_zero_deletions_gives_identical_copies():
    D = apply_deletions(C10, DeletionPattern(()), G12)
    assert D.rows.shape == (3, 10)
    for w in range(3):
        assert np.array_equal(D.rows[w], C10.bits)


def test_constant_track_invariant_under_deletion():
    D = apply_deletions(BitTrack([0] * 10), DeletionPattern((3, 4)), HeadGeometry((2,)))
    assert D.rows.tolist() == [[0] * 8, [0] * 8]


def test_three_head_edit_matrix():
    E = apply_edits(C10, EditPattern((2, 5, 7), (0, 2), ((1, 1), (1, 0), (0, 1))), G12)
    assert E.rows.tolist() == [
        [1, 1, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 1, 0, 1, 0, 0, 0, 1],
        [1, 1, 0, 0, 1, 1, 0, 0, 0],
    ]


def test_no_edits_copies_track():
    E = apply_edits(C10, EditPattern((), (), ((), (), ())), G12)
    for w in range(3):
        assert np.array_equal(E.rows[w], C10.bits)


def test_single_head_edit_replay():
    # delete the first bit of (0,1), insert 0 after position 1
    E = apply_edits(BitTrack([0, 1]), EditPattern((1,), (1,), ((0,),)), HeadGeometry(()))
    assert E.rows.tolist() == [[0, 1]]


@pytest.mark.parametrize("seed", range(200))
def test_matrices_match_definitional_replay(seed):
    rng = random.Random(seed)
    n = rng.randrange(12, 40)
    c = BitTrack([rng.randrange(2) for _ in range(n)])
    g = HeadGeometry(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))))
    k = rng.randrange(0, 4)
    pat = sample_deletions(rng, n, k, g)
    D = apply_deletions(c, pat, g)
    expected = oracle_read_matrix(bits_str(c.bits), pat.delta1, g.offsets)
    assert [bits_str(r) for r in D.rows] == expected
    # edits with per-head bits
    r, s = rng.randrange(0, 3), rng.randrange(0, 3)
    dels = tuple(sorted(rng.sample(range(1, n - g.span + 1), r))) if n - g.span >= r else ()
    ins = tuple(sorted(rng.sample(range(0, n - g.span + 1), s))) if n - g.span + 1 >= s else ()
    bits_rows = tuple(tuple(rng.randrange(2) for _ in ins) for _ in range(g.d))
    E = apply_edits(c, EditPattern(dels, ins, bits_rows), g)
    expected = oracle_edit_matrix(
        bits_str(c.bits), dels, ins, [[str(b) for b in row] for row in bits_rows], g.offsets
    )
    assert [bits_str(r) for r in E.rows] == expected


@pytest.mark.parametrize(
    "n,distances,dels,ins",
    [
        (12, (2,), (), (0,)),  # insertion before the first bit
        (12, (2,), (3,), (10,)),  # insertion after n - span, the last admissible spot
        (12, (1,), (1, 11), (0, 11)),  # both ends at once
        (15, (2,), (5,), (5,)),  # a deletion and an insertion at one position
        (15, (2,), (5, 6), (4, 6)),  # two insertions with only deleted positions between
        (15, (1,), (4, 5, 6), (3, 4, 5, 6)),  # several insertions on one read index
        (20, (1, 3), (2, 9), (0, 9, 16)),  # three heads at unequal distances
        (20, (3, 1), (1, 2, 3), (1, 16)),
    ],
)
def test_edge_patterns_match_definitional_replay(n, distances, dels, ins):
    rng = random.Random(n + len(dels) + len(ins))
    c = BitTrack([rng.randrange(2) for _ in range(n)])
    g = HeadGeometry(distances)
    bits_rows = tuple(tuple(rng.randrange(2) for _ in ins) for _ in range(g.d))
    E = apply_edits(c, EditPattern(dels, ins, bits_rows), g)
    str_rows = [[str(b) for b in row] for row in bits_rows]
    expected = oracle_edit_matrix(bits_str(c.bits), dels, ins, str_rows, g.offsets)
    assert [bits_str(r) for r in E.rows] == expected
    D = apply_deletions(c, DeletionPattern(dels), g)
    assert [bits_str(r) for r in D.rows] == oracle_read_matrix(bits_str(c.bits), dels, g.offsets)


def test_deletion_sampler_matches_reference():
    """The edit sampler with r=k, s=0 draws the old deletion sampler's positions
    and leaves the generator in the same state, also when the track is too short."""
    sweep = random.Random(5)
    for case in range(2000):
        n = sweep.randrange(0, 60)
        k = sweep.randrange(0, 5)
        g = HeadGeometry(tuple(sweep.randrange(1, 5) for _ in range(sweep.randrange(0, 3))))
        ours, ref = random.Random(case), random.Random(case)
        try:
            expected = reference_sample_deletion_pattern(ref, n, k, g)
        except InadmissiblePattern:
            with pytest.raises(InadmissiblePattern):
                sample_deletions(ours, n, k, g)
        else:
            assert sample_deletions(ours, n, k, g) == expected
        assert ours.getstate() == ref.getstate()


def test_shifted_pattern_rejected():
    with pytest.raises(InadmissiblePattern):
        apply_deletions(C10, DeletionPattern((9,)), G12)  # 9 + 3 > 10
    with pytest.raises(InadmissiblePattern):
        apply_edits(C10, EditPattern((), (8,), ((0,), (0,), (0,))), G12)
    # below the track: deletions start at 1, insertions at 0
    with pytest.raises(InadmissiblePattern):
        apply_deletions(C10, DeletionPattern((0,)), G12)
    with pytest.raises(InadmissiblePattern):
        apply_edits(C10, EditPattern((0,), (), ((), (), ())), G12)
    with pytest.raises(InadmissiblePattern):
        apply_edits(C10, EditPattern((), (-1,), ((0,), (0,), (0,))), G12)


def test_row_lengths():
    rng = random.Random(1)
    g = HeadGeometry((2, 1))
    for _ in range(50):
        n = rng.randrange(10, 30)
        c = BitTrack([rng.randrange(2) for _ in range(n)])
        k = rng.randrange(0, 3)
        pat = sample_deletions(rng, n, k, g)
        assert apply_deletions(c, pat, g).cols == n - k
        r, s = rng.randrange(0, 2), rng.randrange(0, 2)
        dels = tuple(rng.sample(range(1, n - 3), r))
        ins = tuple(rng.sample(range(0, n - 3), s))
        E = apply_edits(c, EditPattern(dels, ins, tuple(tuple([0] * s) for _ in range(3))), g)
        assert E.cols == n + s - r


def test_shift_consistency_between_heads():
    # row w+1 under delta1 equals row w under delta1 + t_w (interior patterns)
    rng = random.Random(2)
    g = HeadGeometry((3,))
    for _ in range(50):
        n = 30
        c = BitTrack([rng.randrange(2) for _ in range(n)])
        p = rng.randrange(2, n - 6)
        D1 = apply_deletions(c, DeletionPattern((p,)), g)
        D2 = apply_deletions(c, DeletionPattern((p + 3,)), g)
        assert np.array_equal(D1.rows[1], D2.rows[0])


def test_ball_constant_track():
    assert len(enumerate_deletion_ball(BitTrack([0] * 5), 1, HeadGeometry((1,)))) == 1


def test_ball_single_head_two_bits():
    ball = enumerate_deletion_ball(BitTrack([0, 1]), 1, HeadGeometry(()))
    assert {bits_str(m.rows[0]) for m in ball} == {"0", "1"}


def test_ball_size_matches_plain_enumeration():
    c = "1010"
    g = HeadGeometry((1,))
    expected = set()
    for p in range(1, 4):  # p + 1 <= 4
        expected.add(tuple(oracle_read_matrix(c, (p,), g.offsets)))
    ball = enumerate_deletion_ball(BitTrack([1, 0, 1, 0]), 1, g)
    got = {tuple(bits_str(r) for r in m.rows) for m in ball}
    assert got == expected


def test_ball_contains_every_sampled_matrix():
    rng = random.Random(3)
    c = BitTrack([rng.randrange(2) for _ in range(12)])
    g = HeadGeometry((2,))
    ball = enumerate_deletion_ball(c, 2, g)
    for _ in range(1000):
        pat = sample_deletions(rng, 12, 2, g)
        assert apply_deletions(c, pat, g) in ball


def test_ball_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_deletion_ball(BitTrack([0, 1] * 40), 4, HeadGeometry((1,)), budget=100)


def test_track_file_roundtrip():
    rng = random.Random(4)
    for n in (0, 1, 7, 8, 37, 256):
        bits = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        assert np.array_equal(parse_track(format_track(bits)), bits)
    # ASCII fixture form
    assert parse_track("0101\n10\n").tolist() == [0, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        parse_track("len=8\nff11\n")  # wrong digit count
