"""Edit-mode synchronization: marking, net shifts, outside bits, head reduction."""

import random

import numpy as np
import pytest

from rtcodec.bits import UNKNOWN, as_bits
from rtcodec.editsync import (
    build_edit_report,
    edit_margin,
    head_reduction_recover,
    identify_edit_intervals,
    net_shift_of_interval,
)
from rtcodec.errors import ReductionStuck
from rtcodec.model import (
    BitTrack,
    EditPattern,
    apply_edits,
    sample_edit_pattern,
)
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods
from rtcodec.trace import Trace

from helpers import cluster_interval_assignment, edit_clusters, of_kind

PARAMS = CodeParams.edit(8192, 2, 3)


def make_capped_track(rng, n, k):
    msg = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
    return BitTrack(cap_periods(msg, k))


def spread_pattern(rng, n, params, r, s):
    """Random (r, s) pattern whose events sit far apart and inside the scan."""
    span = params.geometry.span
    margin = edit_margin(params)
    lo, hi = margin, n - span - margin
    positions = sorted(rng.sample(range(lo, hi, 2 * margin), r + s))
    rng.shuffle(positions)
    dels = tuple(sorted(positions[:r]))
    ins = tuple(sorted(positions[r:]))
    bits = tuple(tuple(rng.randrange(2) for _ in range(s)) for _ in range(params.d))
    return EditPattern(dels, ins, bits)


def test_error_free_matrix_single_tail_interval():
    rng = random.Random(0)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    E = apply_edits(c, EditPattern((), (), ((), (), ())), PARAMS.geometry)
    intervals = identify_edit_intervals(E, PARAMS)
    assert len(intervals) == 1
    s, e = intervals[0]
    assert e == E.cols and e - s + 1 <= 2 * edit_margin(PARAMS) + 2


def test_rows_agree_outside_intervals_property():
    rng = random.Random(1)
    for _ in range(25):
        c = make_capped_track(rng, PARAMS.n, PARAMS.k)
        pat = sample_edit_pattern(rng, len(c), PARAMS.k, PARAMS.geometry)
        E = apply_edits(c, pat, PARAMS.geometry)
        intervals = identify_edit_intervals(E, PARAMS)
        outside = np.ones(E.cols, dtype=bool)
        for s, e in intervals:
            outside[s - 1 : e] = False
        agree = (E.rows == E.rows[0]).all(axis=0)
        assert agree[outside].all()
        # interval length bound
        bound = (2 * edit_margin(PARAMS) + 1) * (PARAMS.k + 1) + edit_margin(PARAMS) - PARAMS.geometry.distances[0] + 2 * PARAMS.k
        for s, e in intervals[:-1]:
            assert e - s + 1 <= params_interval_bound(PARAMS)


def params_interval_bound(params):
    t = params.geometry.distances[0]
    k, d = params.k, params.d
    return (2 * k * d * t + 2 * t + 1) * (k + 1) + k * d * t + 2 * k


def test_net_shift_agreeing_interval_is_zero():
    rng = random.Random(2)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    E = apply_edits(c, EditPattern((), (), ((), (), ())), PARAMS.geometry)
    (iv,) = identify_edit_intervals(E, PARAMS)
    assert net_shift_of_interval(E, iv, PARAMS) == 0


@pytest.mark.parametrize("r,s,expected", [(1, 0, -1), (0, 1, 1), (1, 2, 1), (2, 1, -1)])
def test_net_shift_ground_truth(r, s, expected):
    rng = random.Random(10 + r * 4 + s)
    params = CodeParams.edit(16384, 3, 2)
    hits = 0
    for _ in range(5):
        c = make_capped_track(rng, params.n, params.k)
        # one cluster mid-track, far enough from both ends to be isolated
        base = rng.randrange(7800, 8200)
        dels = tuple(base + 2 * i for i in range(r))
        ins = tuple(base + 100 + 2 * i for i in range(s))
        bits = tuple(tuple(rng.randrange(2) for _ in range(s)) for _ in range(2))
        pat = EditPattern(dels, ins, bits)
        E = apply_edits(c, pat, params.geometry)
        report = build_edit_report(E, params, total_shift=s - r)
        target = [j for j, (b1, b2) in enumerate(report.intervals) if b2 != E.cols]
        if len(target) == 1:
            assert report.shifts[target[0]] == expected
            hits += 1
        else:
            assert sum(report.shifts) == s - r
    assert hits >= 4


def test_recover_outside_bits_error_free():
    rng = random.Random(3)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    E = apply_edits(c, EditPattern((), (), ((), (), ())), PARAMS.geometry)
    report = build_edit_report(E, PARAMS, total_shift=0)
    est = report.outside_bits(E.rows[0], len(c))
    known = est != UNKNOWN
    assert known.sum() >= len(c) - (2 * edit_margin(PARAMS) + 2)
    assert np.array_equal(est[known], c.bits[known])


def test_recover_outside_bits_matches_truth_with_shifts():
    rng = random.Random(4)
    for _ in range(20):
        c = make_capped_track(rng, PARAMS.n, PARAMS.k)
        r = rng.randrange(0, 3)
        s = rng.randrange(0, 3 - r)
        pat = spread_pattern(rng, len(c), PARAMS, r, s)
        E = apply_edits(c, pat, PARAMS.geometry)
        sigma = E.cols - len(c)
        report = build_edit_report(E, PARAMS, total_shift=sigma)
        clusters = edit_clusters(pat.delta1, pat.gamma1, PARAMS.d, PARAMS.geometry.distances[0])
        assign = cluster_interval_assignment(clusters, report.intervals, pat.delta1, pat.gamma1)
        # net shifts per interval match the clusters that live inside it
        for j in range(len(report.intervals)):
            truth = sum(clusters[ci]["net"] for ci in assign[j])
            assert report.shifts[j] == truth
        est = report.outside_bits(E.rows[0], len(c))
        known = est != UNKNOWN
        assert np.array_equal(est[known], c.bits[known])


def test_head_reduction_error_free_returns_row():
    seg = as_bits("101100111000")
    e, d_star = head_reduction_recover([seg, seg.copy(), seg.copy()], PARAMS)
    assert d_star == 3 and np.array_equal(e, seg)


def test_head_reduction_repairs_intervals():
    rng = random.Random(5)
    repaired = 0
    for _ in range(40):
        c = make_capped_track(rng, PARAMS.n, PARAMS.k)
        r = rng.randrange(0, 3)
        s = rng.randrange(0, 3 - r)
        pat = spread_pattern(rng, len(c), PARAMS, r, s)
        E = apply_edits(c, pat, PARAMS.geometry)
        sigma = E.cols - len(c)
        report = build_edit_report(E, PARAMS, total_shift=sigma)
        for j, ((b1, b2), s_j) in enumerate(zip(report.intervals, report.shifts)):
            segs = [E.rows[w][b1 - 1 : b2] for w in range(PARAMS.d)]
            e_j, d_star = head_reduction_recover(segs, PARAMS)
            src = report.source_intervals[j][0]
            truth = c.bits[src - 1 : src - 1 + len(e_j)]
            assert np.array_equal(e_j, truth)
            if s_j != 0 or d_star < PARAMS.d:
                repaired += 1
    assert repaired >= 20


def test_head_reduction_row_count_decreases():
    rng = random.Random(6)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    pat = spread_pattern(rng, len(c), PARAMS, 1, 1)
    E = apply_edits(c, pat, PARAMS.geometry)
    report = build_edit_report(E, PARAMS, total_shift=0)
    for j, (b1, b2) in enumerate(report.intervals):
        segs = [E.rows[w][b1 - 1 : b2] for w in range(PARAMS.d)]
        trace = Trace()
        e_j, d_star = head_reduction_recover(segs, PARAMS, trace)
        assert d_star == PARAMS.d - len(of_kind(trace, "reduction_step"))
        assert d_star >= 1


def test_head_reduction_overload_flagged_or_counts_consistent():
    """d = 2 with 2 errors in one interval: wrong output only with >= d+d* errors."""
    params = CodeParams.edit(8192, 2, 2)
    rng = random.Random(7)
    flagged = correct = wrong = 0
    for _ in range(60):
        c = make_capped_track(rng, params.n, params.k)
        base = rng.randrange(3000, 4000)
        pat = EditPattern((base, base + 3), (), ((), ()))
        E = apply_edits(c, pat, params.geometry)
        report = build_edit_report(E, params, total_shift=-2)
        j = next(
            jj for jj, (b1, b2) in enumerate(report.intervals)
            if report.shifts[jj] != 0 or b2 != E.cols
        )
        b1, b2 = report.intervals[j]
        segs = [E.rows[w][b1 - 1 : b2] for w in range(params.d)]
        try:
            e_j, d_star = head_reduction_recover(segs, params)
        except ReductionStuck:
            flagged += 1
            continue
        src = report.source_intervals[j][0]
        truth = c.bits[src - 1 : src - 1 + len(e_j)]
        if np.array_equal(e_j, truth):
            # errors (2) >= d - d*
            assert 2 >= params.d - d_star
            correct += 1
        else:
            # errors (2) >= d + d* would need d* <= 0; accounting only allows
            # wrong output when the bound is satisfiable, so flag it
            assert 2 >= params.d + d_star or d_star == 1
            wrong += 1
    assert flagged + correct + wrong == 60
