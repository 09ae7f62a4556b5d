"""Deletion hashers and block hashing."""

import random
from itertools import combinations

import numpy as np
import pytest

from rtcodec.bits import UNKNOWN, as_bits, bits_from_int, ceil_log2
from rtcodec.errors import BudgetExceeded, HashRecoveryFailed, RtCodecError, UnsupportedK
from rtcodec.hashing import ColoringHasher, IdentityHasher, VtHasher, block_bounds, edit_completions
from rtcodec.layered import restore_blocks
from rtcodec.layout import build_layout, pack_group, parity_groups_pair
from rtcodec.params import CodeParams

from helpers import ReferenceColoringHasher, ReferenceVtHasher, edit_ball


def test_identity_roundtrip_and_mismatch():
    h = IdentityHasher()
    rng = random.Random(0)
    c = as_bits([rng.randrange(2) for _ in range(40)])
    tag = h.hash(c, 2)
    assert np.array_equal(h.recover(np.delete(c, (3, 17)), tag, 40, 2), c)
    with pytest.raises(HashRecoveryFailed):
        h.recover(np.delete(1 - c, (3, 17)), tag, 40, 2)


def test_vt_requires_single_error():
    with pytest.raises(UnsupportedK):
        VtHasher().hash([1, 0, 1], 2)


def test_vt_worked_example():
    h = VtHasher()
    c = as_bits([1, 0, 1, 0, 1])
    tag = h.hash(c, 1)
    assert np.array_equal(h.recover(as_bits([1, 1, 0, 1]), tag, 5, 1), c)


def test_vt_exhaustive_deletions():
    h = VtHasher()
    for m in range(2, 12):
        for v in range(1 << m):
            c = bits_from_int(v, m)
            tag = h.hash(c, 1)
            for pos in range(m):
                out = h.recover(np.delete(c, pos), tag, m, 1)
                assert np.array_equal(out, c)


def test_vt_exhaustive_insertions():
    h = VtHasher()
    for m in range(2, 10):
        for v in range(1 << m):
            c = bits_from_int(v, m)
            tag = h.hash(c, 1)
            for pos in range(m + 1):
                for b in (0, 1):
                    out = h.recover(np.insert(c, pos, b), tag, m, 1)
                    assert np.array_equal(out, c)


def test_vt_hash_len():
    h = VtHasher()
    assert h.hash_len(5, 1) == 3 + 1
    assert len(h.hash([1, 0, 1, 0, 1], 1)) == h.hash_len(5, 1)


def test_coloring_proper():
    """Sequences sharing a k-deletion window never share a color (m <= 10)."""
    h = ColoringHasher()
    for m, k in ((6, 1), (8, 2), (10, 2)):
        colors, _ = h._table(m, k)
        windows: dict[bytes, list[int]] = {}
        for v in range(1 << m):
            c = bits_from_int(v, m)
            for pos in combinations(range(m), k):
                windows.setdefault(np.delete(c, pos).tobytes(), []).append(v)
        for members in windows.values():
            cols = [colors[v] for v in sorted(set(members))]
            assert len(set(cols)) == len(cols), "confusable sequences share a color"


def test_coloring_exhaustive_recovery_m8_k2():
    h = ColoringHasher()
    for v in range(256):
        c = bits_from_int(v, 8)
        tag = h.hash(c, 2)
        seen = set()
        for pos in combinations(range(8), 2):
            w = np.delete(c, pos)
            if w.tobytes() in seen:
                continue
            seen.add(w.tobytes())
            assert np.array_equal(h.recover(w, tag, 8, 2), c)


def test_coloring_mixed_edit_recovery():
    h = ColoringHasher()
    rng = random.Random(1)
    for _ in range(40):
        v = rng.randrange(64)
        c = bits_from_int(v, 6)
        tag = h.hash(c, 2)
        cs = "".join(map(str, c))
        for y in edit_ball(cs, 2):
            out = h.recover(as_bits(y), tag, 6, 2)
            assert np.array_equal(out, c)


def test_coloring_budget():
    with pytest.raises(BudgetExceeded):
        ColoringHasher().hash([0] * (ColoringHasher.budget + 1), 2)


def test_coloring_hash_len_reported():
    h = ColoringHasher()
    for m, k in ((8, 2), (10, 2), (10, 1)):
        assert h.hash_len(m, k) <= (4 * k * ceil_log2(m) if m > 1 else 1) + 4


def recover_outcome(hasher, window, h, m: int, k: int):
    """The recovered block as bytes, or the class of the error raised."""
    try:
        return hasher.recover(window, h, m, k).tobytes()
    except RtCodecError as e:
        return type(e)


@pytest.mark.parametrize(
    "new,old,k,max_m",
    [
        (VtHasher(), ReferenceVtHasher(), 1, 7),
        (ColoringHasher(), ReferenceColoringHasher(), 1, 6),
        (ColoringHasher(), ReferenceColoringHasher(), 2, 6),
    ],
    ids=["vt", "coloring-k1", "coloring-k2"],
)
def test_recover_matches_the_searches_it_replaced(new, old, k, max_m):
    """Every window within k+1 of the block length, with every hash value:
    the shared search returns the block the old search returned, or raises
    the same class."""
    for m in range(1, max_m + 1):
        width = new.hash_len(m, k)
        hashes = [bits_from_int(h, width) for h in range(1 << width)]
        for length in range(max(0, m - k - 1), m + k + 2):
            for y in range(1 << length):
                window = bits_from_int(y, length)
                for h in hashes:
                    assert recover_outcome(new, window, h, m, k) == recover_outcome(old, window, h, m, k)


def test_edit_completions_match_the_old_enumeration():
    rng = random.Random(5)
    for m in range(1, 13):
        for k in range(1, 4):
            for _ in range(4):
                length = rng.randint(max(0, m - k), m + k)
                y = as_bits([rng.randrange(2) for _ in range(length)])
                assert edit_completions(y, m, k) == ReferenceColoringHasher._edit_completions(y, m, k)


def test_block_bounds():
    assert block_bounds(20, 8) == [(1, 8), (9, 16), (17, 20)]
    assert block_bounds(8, 8) == [(1, 8)]
    assert block_bounds(19, 8) == [(1, 8), (9, 16), (17, 19)]


def test_hash_blocks_single_and_ragged():
    h = IdentityHasher()
    f = as_bits([1, 0] * 10)
    hashes = [h.hash(f[s - 1 : e], 1) for s, e in block_bounds(len(f), 20)]
    assert len(hashes) == 1 and np.array_equal(hashes[0], f)
    hashes = [h.hash(f[s - 1 : e], 1) for s, e in block_bounds(len(f), 8)]
    assert len(hashes) == 3 and len(hashes[2]) == 4


def restore_every_block(f, subseq, block_len: int, k: int) -> None:
    """Erase each block of f in turn and check that ``layered.restore_blocks``
    rebuilds f: the block's coloring hash comes back from the pair parity, and
    its content from that hash and its window of ``subseq`` (f less k bits)."""
    params = CodeParams.relaxed(len(f) - k - 1, k, (40,), block_len=block_len, hash_mode="coloring")
    layout = build_layout(params)
    assert params.regime == "pair" and layout.f_len == len(f)
    hasher = params.hasher()
    groups = [pack_group(hasher.hash(f[s - 1 : e], k), layout) for s, e in layout.blocks]
    parity = parity_groups_pair(groups, layout)
    for i, (s, e) in enumerate(layout.blocks):
        est = f.copy()
        est[s - 1 : e] = UNKNOWN
        out, _ = restore_blocks(est, [i], parity, layout, params, subseq, len(subseq) - len(f), 0)
        assert np.array_equal(out, f), f"block {i + 1}"


def test_recover_blocks_zero_deletions():
    rng = random.Random(2)
    f = as_bits([rng.randrange(2) for _ in range(30)])
    restore_every_block(f, np.delete(f, (4, 20)), 10, 2)


def test_recover_blocks_exhaustive_pairs_in_one_block():
    rng = random.Random(3)
    f = as_bits([rng.randrange(2) for _ in range(40)])
    for s, e in block_bounds(40, 10):
        for pos in combinations(range(s - 1, e), 2):
            restore_every_block(f, np.delete(f, pos), 10, 2)


def test_recover_blocks_localizes_corrupt_hash():
    """A wrong color for block 2 never yields block 2: recovery raises or
    returns another block, and at least one wrong color raises."""
    h = ColoringHasher()
    rng = random.Random(4)
    f = as_bits([rng.randrange(2) for _ in range(40)])
    d = np.delete(f, (12, 13))
    block = f[10:20]
    window = d[10:18]  # block 2's window: bits 11 to 20-k of the subsequence
    original = h.hash(block, 2)
    raised = 0
    for wrong in range(1 << len(original)):
        color = bits_from_int(wrong, len(original))
        if np.array_equal(color, original):
            continue
        try:
            out = h.recover(window, color, 10, 2)
        except HashRecoveryFailed:
            raised += 1
            continue
        assert not np.array_equal(out, block)
    assert raised > 0
