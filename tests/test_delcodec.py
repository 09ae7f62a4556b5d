"""End-to-end deletion codecs: layout arithmetic, round trips, erasure branches."""

import random
from itertools import combinations

import numpy as np
import pytest

from rtcodec.bits import UNKNOWN
from rtcodec.delcodec import decode_deletions, deletion_layout, encode_deletions
from rtcodec.errors import DecodeFailure, ParamViolation
from rtcodec.layered import bootstrap, restore_blocks
from rtcodec.model import (
    BitTrack,
    DeletionPattern,
    apply_deletions,
    enumerate_deletion_ball,
)
from rtcodec.params import CodeParams
from rtcodec.trace import Trace

from helpers import of_kind, sample_deletions


def roundtrip(params, msg, pattern):
    cw = BitTrack(encode_deletions(msg, params))
    D = apply_deletions(cw, pattern, params.geometry)
    return decode_deletions(D, params)


def test_encode_deterministic():
    params = CodeParams.deletion(256, 3, 2)
    msg = BitTrack([0] * 256)
    a = encode_deletions(msg, params)
    b = encode_deletions(msg, params)
    assert np.array_equal(a, b)


def test_layout_arithmetic_identity():
    rng = random.Random(0)
    for n, k, d in ((256, 3, 2), (256, 4, 2), (512, 2, 2), (300, 6, 3)):
        params = CodeParams.deletion(n, k, d)
        lay = deletion_layout(params)
        msg = BitTrack([rng.randrange(2) for _ in range(n)])
        cw = encode_deletions(msg, params)
        assert len(cw) == lay.total == lay.f_len + lay.n1 + lay.n2
        assert lay.f_len == n + k + 1
        assert lay.n1 == lay.parity_groups * lay.group_symbols * lay.symbol_bits
        # redundancy identity: N - n = k+1 + N1 + N2
        assert len(cw) - n == k + 1 + lay.n1 + lay.n2


def test_rs_parity_block_count():
    for n, k, d in ((256, 4, 2), (256, 6, 2), (300, 6, 3), (300, 9, 2)):
        params = CodeParams.deletion(n, k, d)
        assert params.regime == "rs"
        assert deletion_layout(params).parity_groups == 2 * (k // d)


def test_rs_field_width_follows_symbol_count():
    """An RS code over more than 255 symbols (blocks plus parity) runs over
    GF(2^16): it round-trips and restores any 4 erased blocks. Fewer keep GF(2^8)."""
    assert deletion_layout(CodeParams.relaxed(2000, 4, (595,), block_len=10)).symbol_bits == 8
    params = CodeParams.relaxed(3000, 4, (595,), block_len=10)
    lay = deletion_layout(params)
    assert params.regime == "rs" and len(lay.blocks) == 301 and lay.symbol_bits == 16
    rng = random.Random(9)
    msg = BitTrack([rng.randrange(2) for _ in range(3000)])
    cw = BitTrack(encode_deletions(msg, params))
    for delta1 in ((), (rng.randrange(1, lay.f_len + 1),)):
        reads = apply_deletions(cw, DeletionPattern(delta1), params.geometry)
        assert np.array_equal(decode_deletions(reads, params), msg.bits)
    boot = bootstrap(apply_deletions(cw, DeletionPattern(()), params.geometry), params, "deletion")
    capped = cw.bits[: lay.f_len]
    for erased in ([0, 1, 2, 3], [10, 150, 299, 300], sorted(rng.sample(range(301), 4))):
        est = capped.copy()
        for i in erased:
            s, e = lay.blocks[i]
            est[s - 1 : e] = UNKNOWN
        out, substituted = restore_blocks(est, erased, boot.parity, lay, params, boot.row1, boot.sigma, 0)
        assert np.array_equal(out, capped) and substituted == []


def test_regime_gate():
    with pytest.raises(ParamViolation):
        encode_deletions(BitTrack([0] * 64), CodeParams.deletion(64, 1, 2))


def test_wrong_length_rejected():
    params = CodeParams.deletion(128, 3, 2)
    with pytest.raises(ParamViolation):
        encode_deletions(BitTrack([0] * 100), params)


def test_pair_random_roundtrip():
    rng = random.Random(1)
    params = CodeParams.deletion(512, 3, 2)
    for _ in range(25):
        msg = BitTrack([rng.randrange(2) for _ in range(512)])
        cw = BitTrack(encode_deletions(msg, params))
        pat = sample_deletions(rng, len(cw), 3, params.geometry)
        assert np.array_equal(roundtrip(params, msg, pat), msg.bits)


def test_rs_random_roundtrip():
    rng = random.Random(2)
    params = CodeParams.deletion(512, 4, 2)
    for _ in range(25):
        msg = BitTrack([rng.randrange(2) for _ in range(512)])
        cw = BitTrack(encode_deletions(msg, params))
        pat = sample_deletions(rng, len(cw), 4, params.geometry)
        assert np.array_equal(roundtrip(params, msg, pat), msg.bits)


def test_fewer_than_k_deletions_accepted():
    rng = random.Random(3)
    params = CodeParams.deletion(512, 3, 2)
    msg = BitTrack([rng.randrange(2) for _ in range(512)])
    for load in (0, 1, 2):
        cw = BitTrack(encode_deletions(msg, params))
        pat = sample_deletions(rng, len(cw), load, params.geometry)
        assert np.array_equal(roundtrip(params, msg, pat), msg.bits)


def test_relaxed_exhaustive_single_error_coloring():
    """Every admissible single-deletion pattern at toy scale, coloring hashes."""
    rng = random.Random(4)
    params = CodeParams.relaxed(32, 1, (40,), kind="deletion", block_len=10, hash_mode="coloring")
    for _ in range(2):
        msg = BitTrack([rng.randrange(2) for _ in range(32)])
        cw = BitTrack(encode_deletions(msg, params))
        for p in range(1, len(cw) - 40 + 1):
            D = apply_deletions(cw, DeletionPattern((p,)), params.geometry)
            assert np.array_equal(decode_deletions(D, params), msg.bits)


def test_relaxed_exhaustive_single_error_vt():
    rng = random.Random(5)
    params = CodeParams.relaxed(40, 1, (45,), kind="deletion", block_len=12, hash_mode="vt")
    msg = BitTrack([rng.randrange(2) for _ in range(40)])
    cw = BitTrack(encode_deletions(msg, params))
    for p in range(1, len(cw) - 45 + 1):
        D = apply_deletions(cw, DeletionPattern((p,)), params.geometry)
        assert np.array_equal(decode_deletions(D, params), msg.bits)


def test_tiny_code_ball_disjointness():
    """Pairwise deletion-ball disjointness for a toy relaxed code (n = 16, k = 1)."""
    rng = random.Random(6)
    params = CodeParams.relaxed(
        16, 1, (20,), kind="deletion", block_len=8, hash_mode="vt"
    )
    messages = [BitTrack([rng.randrange(2) for _ in range(16)]) for _ in range(10)]
    balls = []
    for msg in messages:
        cw = BitTrack(encode_deletions(msg, params))
        balls.append(enumerate_deletion_ball(cw, 1, params.geometry))
    for i, j in combinations(range(len(balls)), 2):
        assert not (balls[i] & balls[j]), f"balls of codewords {i} and {j} intersect"


def test_truncated_matrix_rejected():
    params = CodeParams.deletion(256, 3, 2)
    msg = BitTrack([0] * 256)
    cw = BitTrack(encode_deletions(msg, params))
    D = apply_deletions(cw, DeletionPattern((1, 2, 3)), params.geometry)
    # drop ten columns from every row: no longer a plausible k-deletion read
    from rtcodec.model import ReadMatrix

    bad = ReadMatrix(D.rows[:, :-10], kind="deletion")
    with pytest.raises(DecodeFailure):
        decode_deletions(bad, params)
    # a row too few or too many for the d-head code fails at input, however plausible each row
    for rows in (D.rows[:1], np.vstack([D.rows, D.rows[:1]])):
        with pytest.raises(DecodeFailure) as err:
            decode_deletions(ReadMatrix(rows, kind="deletion"), params)
        assert err.value.stage == "input"


def test_read_check_rejects_dropped_interval():
    """A bit flip whose interval the k-interval truncation drops must not decode silently."""
    from rtcodec.model import ReadMatrix

    params = CodeParams.deletion(4096, 2, 2)
    rng = random.Random(3)
    msg = BitTrack([rng.randrange(2) for _ in range(4096)])
    cw = BitTrack(encode_deletions(msg, params))
    D = apply_deletions(cw, DeletionPattern((200, 1500)), params.geometry)
    rows = D.rows.copy()
    rows[0, 2600] ^= 1
    with pytest.raises(DecodeFailure) as err:
        decode_deletions(ReadMatrix(rows, kind="deletion"), params)
    assert err.value.stage == "verify"


def test_restore_failure_names_its_stage_once():
    """A block estimate with one flipped bit and no erased blocks fails the
    pair parity check; the message carries the ``erasure`` prefix once."""
    params = CodeParams.deletion(512, 2, 2)
    rng = random.Random(8)
    msg = BitTrack([rng.randrange(2) for _ in range(512)])
    cw = BitTrack(encode_deletions(msg, params))
    boot = bootstrap(apply_deletions(cw, DeletionPattern(()), params.geometry), params, "deletion")
    est = cw.bits[: boot.layout.f_len].copy()
    est[0] ^= 1
    with pytest.raises(DecodeFailure) as err:
        restore_blocks(est, [], boot.parity, boot.layout, params, boot.row1, boot.sigma, 0)
    assert err.value.stage == "erasure"
    assert str(err.value) == "erasure: pair parity mismatch with no erasures"


@pytest.mark.parametrize(
    "bad_parity,max_subs,message",
    [
        (0, 0, "erasure: 1 substituted blocks exceed budget 0"),
        (3, 2, "erasure: rs: errata beyond guarantee radius"),
    ],
    ids=["budget", "radius"],
)
def test_rs_restore_failure_is_an_erasure_failure(bad_parity, max_subs, message):
    """RS restore failures report stage ``erasure``: a corrected block beyond
    the substitution budget, and errata beyond the RS radius (the decoder's own
    ``rs`` failure, wrapped once)."""
    params = CodeParams.deletion(512, 4, 2)
    assert params.regime == "rs"
    rng = random.Random(8)
    msg = BitTrack([rng.randrange(2) for _ in range(512)])
    cw = BitTrack(encode_deletions(msg, params))
    boot = bootstrap(apply_deletions(cw, DeletionPattern(()), params.geometry), params, "deletion")
    est = cw.bits[: boot.layout.f_len].copy()
    parity = [list(grp) for grp in boot.parity]
    if bad_parity:
        for grp in parity[:bad_parity]:
            grp[0] ^= 1
    else:
        est[0] ^= 1
    with pytest.raises(DecodeFailure) as err:
        restore_blocks(est, [], parity, boot.layout, params, boot.row1, boot.sigma, max_subs)
    assert err.value.stage == "erasure"
    assert str(err.value) == message


@pytest.mark.parametrize("k,n,probed", [(3, 512, 0), (4, 512, 0), (2, 4096, 1)], ids=["pair", "rs", "pair-n4096"])
def test_trace_stages_and_events(k, n, probed):
    params = CodeParams.deletion(n, k, 2)
    rng = random.Random(20 + k)
    msg = BitTrack([rng.randrange(2) for _ in range(n)])
    cw = BitTrack(encode_deletions(msg, params))
    D = apply_deletions(cw, DeletionPattern((100, 101, 300)[: k - 1]), params.geometry)
    trace = Trace()
    assert np.array_equal(decode_deletions(D, params, trace), msg.bits)
    assert set(trace.stages) == {"bootstrap", "sync", "intervals", "restore", "finish"}
    intervals = of_kind(trace, "interval")
    assert len(intervals) >= 1
    assert {iv["outcome"] for iv in intervals} <= {"recovered", "heavy", "redundancy"}
    assert sum(iv["count"] for iv in intervals) == k - 1
    assert len(of_kind(trace, "heavy")) == 1
    # the trailing interval is counted by subtraction, every other one by a probe vote
    spans = [iv["read_span"] for iv in intervals if iv["read_span"][1] != D.cols]
    assert len(spans) == probed
    assert [vote["interval"] for vote in of_kind(trace, "count_vote")] == spans
