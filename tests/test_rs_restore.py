"""The lane-batched Reed-Solomon restore and its oracles.

``layout.restore_rs`` decodes every lane at once and sends only the lanes
with errors to the scalar decoder. It is checked against a verbatim copy of
the lane-by-lane loop it replaced (``helpers.reference_restore_rs``), and the
scalar decoder is checked against brute force over every codeword of short
codes.
"""

import random
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_restore_rs
from rtcodec.algebra import rs_decode_errors_erasures, rs_parity_lanes
from rtcodec.delcodec import decode_deletions, encode_deletions
from rtcodec.editcodec import decode_edits, encode_edits
from rtcodec.errors import DecodeFailure, RtCodecError, TooManyErasures
from rtcodec.gf import GF
from rtcodec import layered
from rtcodec.layout import Layout, build_layout, pack_group, parity_groups_rs, restore_rs
from rtcodec.model import BitTrack, DeletionPattern, apply_deletions, apply_edits, sample_edit_pattern
from rtcodec.params import CodeParams
from rtcodec.trace import Trace

LANES = 4


def lane_layout(blocks: int, r: int, width: int) -> Layout:
    return Layout(
        n=1, k=1, f_len=blocks, block_len=1, blocks=((1, 1),) * blocks, hash_bits=LANES * width,
        group_symbols=LANES, symbol_bits=width, parity_groups=r,
    )


def outcome(restore, *args):
    """The result of a restore, or the class and text of what it raised."""
    try:
        return restore(*args)
    except RtCodecError as e:
        return type(e), str(e)


@pytest.mark.parametrize("width", [8, 16])
def test_restore_rs_matches_the_lane_loop(width):
    """Every erasure set of up to r blocks (and one past), every substituted
    count up to (r-f)//2 (and one past the radius), each substituted block
    corrupt in some lanes and clean in others, and a budget one below the
    substituted count: equal groups and substituted lists, or the same
    exception with the same text."""
    rng = random.Random(f"restore-rs:{width}")
    cases = 0
    for r in (2, 4, 6):
        for n_blocks in range(1, 7):
            layout = lane_layout(n_blocks, r, width)
            for f in range(min(r + 1, n_blocks) + 1):
                for erased in combinations(range(n_blocks), f):
                    clean = [i for i in range(n_blocks + r) if i not in erased]
                    radius = max(r - f, 0) // 2
                    for subs in range(min(radius + 1, len(clean)) + 1):
                        msgs = np.array(
                            [[rng.randrange(1 << width) for _ in range(LANES)] for _ in range(n_blocks)],
                            dtype=np.int64,
                        )
                        words = np.concatenate([msgs, rs_parity_lanes(msgs, r, width)])
                        hit = rng.sample(clean, subs)
                        corrupt_lanes = set()
                        for row in hit:
                            lanes = [lane for lane in range(LANES) if rng.random() < 0.5] or [rng.randrange(LANES)]
                            for lane in lanes:
                                words[row, lane] ^= rng.randrange(1, 1 << width)
                            corrupt_lanes.update(lanes)
                        groups = [None if i in erased else words[i].tolist() for i in range(n_blocks)]
                        parity = words[n_blocks:].tolist()
                        n_subs = sum(row < n_blocks for row in hit)
                        for budget in {n_subs, max(n_subs - 1, 0)}:
                            trace = Trace()
                            got = outcome(restore_rs, groups, parity, layout, budget, trace)
                            assert got == outcome(reference_restore_rs, groups, parity, layout, budget), (
                                r, n_blocks, erased, hit, budget,
                            )
                            if f <= r and subs <= radius:
                                if n_subs <= budget:
                                    assert got[0] == msgs.tolist()
                                assert trace.counters["rs.scalar_lanes"] == len(corrupt_lanes)
                            cases += 1
    assert cases > 1000


def test_restore_rs_rejects_erasures_past_the_parity():
    layout = lane_layout(6, 4, 8)
    msgs = np.arange(6 * LANES, dtype=np.int64).reshape(6, LANES)
    parity = rs_parity_lanes(msgs, 4, 8).tolist()
    with pytest.raises(TooManyErasures, match="^5 erasures exceed parity 4$"):
        restore_rs([None] * 5 + [msgs[5].tolist()], parity, layout, max_errors=3)


def test_restore_blocks_clamps_the_substitution_budget(monkeypatch):
    """Five erased blocks over four parity symbols leave no parity for
    substitutions: the budget handed to ``restore_rs`` is 0, not -1, and the
    failure is the erasure count, not a budget overrun."""
    params = CodeParams.relaxed(1024, 4, (60,), kind="edit", block_len=128, hash_mode="identity")
    layout = build_layout(params)
    assert params.regime == "rs" and layout.parity_groups == 4 and len(layout.blocks) >= 9
    rng = random.Random(5)
    f = np.array([rng.randrange(2) for _ in range(layout.f_len)], dtype=np.uint8)
    hasher = params.hasher()
    parity = parity_groups_rs([pack_group(hasher.hash(f[s - 1 : e], 4), layout) for s, e in layout.blocks], layout)
    budgets = []

    def spy(groups, parity, layout, max_errors=0, trace=None):
        budgets.append(max_errors)
        return restore_rs(groups, parity, layout, max_errors, trace)

    monkeypatch.setattr(layered, "restore_rs", spy)
    for erased, text in ((5, "5 erasures exceed parity 4"), (9, "9 erasures exceed parity 4")):
        with pytest.raises(DecodeFailure, match=f"^erasure: {text}$"):
            layered.restore_blocks(f, list(range(erased)), parity, layout, params, f, 0, 2)
    assert budgets == [0, 0]


@pytest.mark.parametrize("kind", ["deletion", "edit"])
def test_both_codecs_count_scalar_lanes_in_their_trace(kind):
    """An in-model decode that restores a block shows ``rs.scalar_lanes`` in
    its trace, at 0: every lane took the batched path."""
    rng = random.Random("golden:0")
    params = CodeParams.deletion(1024, 4, 2) if kind == "deletion" else CodeParams.edit(512, 4, 2)
    msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
    layout = build_layout(params)
    reach = min(layout.total, layout.f_len + params.geometry.span)
    if kind == "deletion":
        cw = BitTrack(encode_deletions(msg, params))
        pattern = sample_edit_pattern(rng, reach, params.k, params.geometry, r=params.k, s=0)
        reads, decode = apply_deletions(cw, DeletionPattern(pattern.delta1), params.geometry), decode_deletions
    else:
        cw = BitTrack(encode_edits(msg, params))
        reads, decode = apply_edits(cw, sample_edit_pattern(rng, reach, params.k, params.geometry), params.geometry), decode_edits
    trace = Trace()
    assert np.array_equal(decode(reads, params, trace), msg.bits)
    assert "rs.scalar_lanes" in trace.counters and trace.counters["rs.scalar_lanes"] == 0


def test_mul_array_matches_the_scalar_product():
    for width in (8, 16):
        gf = GF.get(width)
        rng = np.random.default_rng(width)
        a = np.concatenate([np.arange(256), rng.integers(0, gf.order, 4000)])
        b = np.concatenate([np.arange(256)[::-1], rng.integers(0, gf.order, 4000)])
        b[::7] = 0
        assert gf.mul_array(a, b).tolist() == [gf.mul(int(x), int(y)) for x, y in zip(a, b)]
    gf = GF.get(8)
    assert gf.mul_array(np.arange(256)[:, None], np.arange(256)[None, :]).tolist() == [
        [gf.mul(x, y) for y in range(256)] for x in range(256)
    ]


# ---------------------------------------------------------------------------
# the scalar decoder against brute force over GF(2^8)


@lru_cache(maxsize=None)
def all_codewords(m: int, r: int) -> np.ndarray:
    """Every codeword of the length-(m + r) code, one row per message."""
    msgs = np.array(list(product(range(256), repeat=m)), dtype=np.int64).T
    return np.concatenate([msgs, rs_parity_lanes(msgs, r, 8)]).T


@st.composite
def received_words(draw):
    m = draw(st.integers(1, 2))
    r = draw(st.integers(1, 4))
    n = m + r
    msg = draw(st.lists(st.integers(0, 255), min_size=m, max_size=m))
    erasures = sorted(draw(st.sets(st.integers(0, n - 1), max_size=r)))
    errors = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 255), max_size=n))
    return m, r, msg, erasures, errors


@settings(max_examples=300, deadline=None)
@given(received_words())
def test_rs_decoder_against_brute_force(case):
    """Inside 2e + f <= r the decoder returns the unique nearest codeword;
    outside it raises or returns a codeword within the radius, never one
    farther away."""
    m, r, msg, erasures, errors = case
    codewords = all_codewords(m, r)
    sent = codewords[int.from_bytes(bytes(msg), "big")]
    y = sent.copy()
    for p, v in errors.items():
        y[p] ^= v
    kept = [p for p in range(m + r) if p not in erasures]
    distance = (codewords[:, kept] != y[kept]).sum(axis=1)
    f, e = len(erasures), int((y[kept] != sent[kept]).sum())
    if 2 * e + f <= r:
        assert np.flatnonzero(distance == distance.min()).tolist() == [int.from_bytes(bytes(msg), "big")]
        assert rs_decode_errors_erasures(y.tolist(), erasures, r) == sent.tolist()
        return
    try:
        out = rs_decode_errors_erasures(y.tolist(), erasures, r)
    except (DecodeFailure, TooManyErasures):
        return
    (row,) = np.flatnonzero((codewords == out).all(axis=1))
    assert 2 * distance[row] + f <= r
