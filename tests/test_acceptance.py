"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances and workloads are pinned here; the stated time budgets are
asserted where a criterion carries one.
"""

import random
import time
from itertools import combinations

import numpy as np
import pytest

from rtcodec.algebra import rep_decode, rs_decode_errors_erasures
from rtcodec.bits import bits_from_int, ceil_log2
from rtcodec.delcodec import decode_deletions, deletion_layout, encode_deletions
from rtcodec.delsync import build_report
from rtcodec.editcodec import decode_edits, edit_layout, encode_edits
from rtcodec.hashing import ColoringHasher, VtHasher
from rtcodec.model import (
    BitTrack,
    DeletionPattern,
    apply_deletions,
    apply_edits,
    enumerate_deletion_ball,
    sample_edit_pattern,
)
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods, max_periodic_run, period_cap, uncap_periods
from rtcodec.trace import Trace

from helpers import (
    check_deletion_report,
    cluster_interval_assignment,
    edit_ball,
    edit_clusters,
    erase,
    of_kind,
    pair_parity,
    pair_restore,
    rs_codeword,
    sample_deletions,
)


def report_line(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({detail})")


def test_criterion_1_period_cap_transform():
    start = time.monotonic()
    checked = 0
    for k in (1, 2):
        for n in range(1, 15):
            seen = set()
            for v in range(1 << n):
                c = bits_from_int(v, n)
                f = cap_periods(c, k)
                assert len(f) == n + k + 1
                assert max_periodic_run(f, k) <= period_cap(n, k)
                key = f.tobytes()
                assert key not in seen, "transform not injective"
                seen.add(key)
                assert np.array_equal(uncap_periods(f, k, n), c)
                checked += 1
    rng = random.Random(1001)
    for trial in range(1000):
        n = rng.choice((256, 1024, 4096))
        k = rng.randrange(1, 4)
        c = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        f = cap_periods(c, k)
        assert len(f) == n + k + 1
        assert max_periodic_run(f, k) <= period_cap(n, k)
        assert np.array_equal(uncap_periods(f, k, n), c)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    report_line(1, f"{checked} transforms, 0 failures, {elapsed:.1f}s < 60s")


def test_criterion_2_subcodes():
    rng = random.Random(1002)
    # Reed-Solomon erasures, exhaustive at codeword length <= 8
    rs_checked = 0
    for m_len in range(1, 8):
        for r in range(0, 8 - m_len + 1):
            msg = [rng.randrange(256) for _ in range(m_len)]
            cw = rs_codeword(msg, r)
            for e in range(r + 1):
                for pos in combinations(range(m_len + r), e):
                    assert rs_decode_errors_erasures(erase(cw, pos), pos, r)[:m_len] == msg
                    rs_checked += 1
    # pair parity, every consecutive pair at lengths <= 64
    pair_checked = 0
    for n in range(2, 65):
        syms = [rng.randrange(256) for _ in range(n)]
        parity = pair_parity(syms)
        for j in range(n - 1):
            word = list(syms)
            word[j] = word[j + 1] = None
            assert pair_restore(word, parity) == syms
            pair_checked += 1
    # repetition, every mixed <= k edit, message length <= 6, k <= 3
    rep_checked = 0
    for k in (1, 2, 3):
        fold = k + 1
        for length in range(1, 7):
            for v in range(1 << length):
                msg = format(v, f"0{length}b")
                cw = "".join(ch * fold for ch in msg)
                for y in edit_ball(cw, k):
                    out = rep_decode(y, fold, length)
                    assert "".join(map(str, out)) == msg
                    rep_checked += 1
    report_line(2, f"rs {rs_checked}, pair {pair_checked}, repetition {rep_checked}, 0 failures")


def test_criterion_3_hashers():
    col = ColoringHasher()
    col_checked = 0
    for k in (1, 2):
        for m in range(k + 2, 11):
            assert col.hash_len(m, k) <= (4 * k * ceil_log2(m) if m > 1 else 1) + 4
            for v in range(1 << m):
                c = bits_from_int(v, m)
                tag = col.hash(c, k)
                seen = set()
                for pos in combinations(range(m), k):
                    w = np.delete(c, pos)
                    key = w.tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                    assert np.array_equal(col.recover(w, tag, m, k), c)
                    col_checked += 1
    vt = VtHasher()
    vt_checked = 0
    for m in range(2, 15):
        for v in range(1 << m):
            c = bits_from_int(v, m)
            tag = vt.hash(c, 1)
            seen = set()
            for pos in range(m):
                w = np.delete(c, pos)
                key = w.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                assert np.array_equal(vt.recover(w, tag, m, 1), c)
                vt_checked += 1
    report_line(3, f"coloring {col_checked}, vt {vt_checked}, 0 failures")


def test_criterion_4_synchronization():
    start = time.monotonic()
    params = CodeParams.deletion(4096, 2, 2)
    rng = random.Random(1004)
    trials = 500
    for trial in range(trials):
        msg = np.array([rng.randrange(2) for _ in range(params.n)], dtype=np.uint8)
        c = BitTrack(cap_periods(msg, params.k))
        pattern = sample_deletions(rng, len(c), params.k, params.geometry)
        D = apply_deletions(c, pattern, params.geometry)
        report = build_report(D, params)
        check_deletion_report(c.bits, pattern, params, D, report)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s (budget 600s)"
    report_line(4, f"{trials}/{trials} sync trials, n=4096 k=2 d=2, {elapsed:.1f}s < 600s")


def _deletion_campaign(params, trials, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
        cw = BitTrack(encode_deletions(msg, params))
        pattern = sample_deletions(rng, len(cw), params.k, params.geometry)
        D = apply_deletions(cw, pattern, params.geometry)
        out = decode_deletions(D, params)
        assert np.array_equal(out, msg.bits)


def test_criterion_5_deletion_pipeline():
    start = time.monotonic()
    pair = CodeParams.deletion(4096, 3, 2)
    rs = CodeParams.deletion(4096, 4, 2)
    _deletion_campaign(pair, 200, 1005)
    _deletion_campaign(rs, 200, 1006)

    # targeted burst and boundary patterns
    rng = random.Random(1007)
    boundary = CodeParams.deletion(4096, 2, 2)
    lay = deletion_layout(boundary)
    assert len(lay.blocks) >= 2, "boundary case needs a multi-block layout"
    msg = BitTrack([rng.randrange(2) for _ in range(4096)])
    cw = BitTrack(encode_deletions(msg, boundary))
    B = boundary.block_len
    targeted = [
        DeletionPattern((100, 101)),  # burst inside block 1
        DeletionPattern((B - 1, B)),  # burst at the end of block 1
        DeletionPattern((B, B + 1)),  # straddling the block boundary
        DeletionPattern((B + 3, B + 4)),  # burst at the start of block 2
    ]
    for pattern in targeted:
        D = apply_deletions(cw, pattern, boundary.geometry)
        assert np.array_equal(decode_deletions(D, boundary), msg.bits)

    msg3 = BitTrack([rng.randrange(2) for _ in range(4096)])
    cw3 = BitTrack(encode_deletions(msg3, pair))
    for pattern in [DeletionPattern((500, 501, 502)), DeletionPattern((500, 501, 3000))]:
        D = apply_deletions(cw3, pattern, pair.geometry)
        assert np.array_equal(decode_deletions(D, pair), msg3.bits)

    msg4 = BitTrack([rng.randrange(2) for _ in range(4096)])
    cw4 = BitTrack(encode_deletions(msg4, rs))
    for pattern in [
        DeletionPattern((500, 501, 3000, 3001)),  # k/d separate d-bursts
        DeletionPattern((500, 501, 2000, 3500)),  # one burst + scattered singles
    ]:
        D = apply_deletions(cw4, pattern, rs.geometry)
        assert np.array_equal(decode_deletions(D, rs), msg4.bits)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"criterion 5 took {elapsed:.1f}s (budget 900s)"
    report_line(5, f"200+200 trials + targeted bursts, 0 failures, {elapsed:.1f}s < 900s")


def _edit_campaign(params, trials, seed, check_budget=True):
    rng = random.Random(seed)
    t = params.geometry.distances[0]
    for _ in range(trials):
        msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
        cw = BitTrack(encode_edits(msg, params))
        pattern = sample_edit_pattern(rng, len(cw), params.k, params.geometry)
        E = apply_edits(cw, pattern, params.geometry)
        trace = Trace()
        out = decode_edits(E, params, trace)
        assert np.array_equal(out, msg.bits)
        if not check_budget:
            continue
        outcomes = of_kind(trace, "interval")
        clusters = edit_clusters(pattern.delta1, pattern.gamma1, params.d, t)
        intervals = [oc["read_span"] for oc in outcomes]
        assign = cluster_interval_assignment(clusters, intervals, pattern.delta1, pattern.gamma1)
        assigned = set()
        for j, oc in enumerate(outcomes):
            err_j = sum(clusters[ci]["count"] for ci in assign[j])
            assigned.update(assign[j])
            if oc["heads_left"] is None:
                continue
            assert err_j >= params.d - oc["heads_left"], "reduction outcome outruns ground truth"
            if oc["estimate"] is not None:
                lo, hi = oc["source_span"]
                cw_bits = cw.bits
                lo2, hi2 = max(lo, 1), min(hi, len(cw_bits))
                truth = cw_bits[lo2 - 1 : hi2]
                got = oc["estimate"][lo2 - lo : hi2 - lo + 1]
                if not np.array_equal(got, truth):
                    if oc["heads_left"] >= 2:
                        assert err_j >= params.d + oc["heads_left"], "wrong estimate below the error floor"
                    else:
                        assert err_j >= params.d, "wrong estimate below the error floor"
        for ci, cl in enumerate(clusters):
            if ci not in assigned and cl["hi"] <= params.n + params.k + 1:
                # the >= 2d floor for undetectable clusters only holds inside
                # the period-capped prefix; redundancy regions (e.g. the long
                # zero run of a one-block pair parity) can hide single errors
                assert cl["count"] >= 2 * params.d, "undetected cluster below 2d errors"


def test_criterion_6_edit_pipeline():
    _edit_campaign(CodeParams.edit(8192, 2, 3), 200, 1008)
    _edit_campaign(CodeParams.edit(4096, 4, 3), 100, 1009)
    _edit_campaign(CodeParams.edit(4096, 4, 2), 100, 1010)
    report_line(6, "200 direct + 100 pair + 100 rs trials, budgets verified, 0 failures")


def test_criterion_7_tiny_ball_disjointness():
    rng = random.Random(1011)
    params = CodeParams.relaxed(16, 1, (20,), kind="deletion", block_len=8, hash_mode="vt")
    messages = [BitTrack([rng.randrange(2) for _ in range(16)]) for _ in range(10)]
    balls = []
    for msg in messages:
        cw = BitTrack(encode_deletions(msg, params))
        balls.append(enumerate_deletion_ball(cw, 1, params.geometry))
    pairs = 0
    for i, j in combinations(range(len(balls)), 2):
        assert not (balls[i] & balls[j])
        pairs += 1
    report_line(7, f"10 codewords, {pairs} pairs, all balls disjoint")


def test_criterion_8_redundancy_accounting():
    cases = [
        ("del", CodeParams.deletion(512, 3, 2)),
        ("del", CodeParams.deletion(512, 4, 2)),
        ("del", CodeParams.deletion(512, 6, 3)),
        ("edit", CodeParams.edit(512, 2, 3)),
        ("edit", CodeParams.edit(512, 4, 3)),
        ("edit", CodeParams.edit(512, 4, 2)),
    ]
    rng = random.Random(1012)
    for mode, params in cases:
        msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
        if mode == "del":
            cw = encode_deletions(msg, params)
            lay = deletion_layout(params)
        else:
            cw = encode_edits(msg, params)
            lay = edit_layout(params)
        assert len(cw) == lay.total
        assert len(cw) - params.n == params.k + 1 + lay.n1 + lay.n2
        if params.regime == "rs":
            assert lay.parity_groups == 2 * (params.k // params.d)
    report_line(8, f"{len(cases)} parameter sets, layout arithmetic exact")
