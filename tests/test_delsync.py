"""Deletion-mode synchronization against simulator ground truth."""

import random

import numpy as np
import pytest

from rtcodec.bits import as_bits
from rtcodec.errors import Ambiguous, NoCandidate
from rtcodec.model import (
    BitTrack,
    DeletionPattern,
    HeadGeometry,
    apply_deletions,
)
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods, max_periodic_run
from rtcodec.delsync import (
    build_report,
    count_deletions_in_interval,
    identify_intervals,
    recover_interval_multihead,
)
from rtcodec.trace import Trace

from helpers import check_deletion_report, sample_deletions

PARAMS = CodeParams.deletion(1024, 2, 2)


def make_capped_track(rng, n, k):
    msg = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
    return BitTrack(cap_periods(msg, k))


def test_zero_deletions_single_tail_interval():
    rng = random.Random(0)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    D = apply_deletions(c, DeletionPattern(()), PARAMS.geometry)
    intervals = identify_intervals(D, PARAMS)
    # everything scannable is marked except the mandatory tail margin
    assert len(intervals) == 1
    s, e = intervals[0]
    assert e == D.cols
    assert s >= PARAMS.n + 1 - PARAMS.geometry.t_max


def test_tail_deletions_only():
    rng = random.Random(1)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    N = len(c)
    span = PARAMS.geometry.span
    pat = DeletionPattern((N - span - 1, N - span))
    D = apply_deletions(c, pat, PARAMS.geometry)
    report = build_report(D, PARAMS)
    check_deletion_report(c.bits, pat, PARAMS, D, report)
    assert -report.shifts[-1] == 2 and -sum(report.shifts) == 2


def test_interval_count_zero_when_clean():
    rng = random.Random(2)
    c = make_capped_track(rng, PARAMS.n, PARAMS.k)
    D = apply_deletions(c, DeletionPattern(()), PARAMS.geometry)
    (iv,) = identify_intervals(D, PARAMS)
    assert count_deletions_in_interval(D, iv, PARAMS) == 0


def test_burst_counted_exactly():
    rng = random.Random(3)
    for trial in range(30):
        c = make_capped_track(rng, PARAMS.n, PARAMS.k)
        p = rng.randrange(10, PARAMS.n // 2)
        pat = DeletionPattern((p, p + 1))
        D = apply_deletions(c, pat, PARAMS.geometry)
        report = build_report(D, PARAMS)
        check_deletion_report(c.bits, pat, PARAMS, D, report)


@pytest.mark.parametrize("seed", range(4))
def test_monte_carlo_ground_truth(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        c = make_capped_track(rng, PARAMS.n, PARAMS.k)
        pat = sample_deletions(rng, len(c), PARAMS.k, PARAMS.geometry)
        D = apply_deletions(c, pat, PARAMS.geometry)
        report = build_report(D, PARAMS)
        check_deletion_report(c.bits, pat, PARAMS, D, report)
        est = report.outside_bits(D.rows[0], len(c))
        src = report.source_intervals
        for p in range(1, len(c) + 1):
            if any(s <= p <= e for s, e in src):
                continue
            assert est[p - 1] == c.bits[p - 1]


def test_probe_fallback_majority_still_correct():
    """A planted long run defeats individual probes; the residue vote survives.

    Relaxed constants: the track is period-capped for T=4 except one planted
    0-run inside the deletion's interval, so probe windows over the run match
    several shifts and fall back to zero without flipping the majority.
    """
    k = 1
    T = 4
    t = (4 * k + 1) * (T + 2 * k + 1)  # 35
    rng = random.Random(9)
    while True:
        bits = [rng.randrange(2) for _ in range(120)]
        c = as_bits(bits)
        if max_periodic_run(c, k) <= T:
            break
    c[40:50] = 0  # planted run, longer than T
    params = CodeParams.relaxed(
        len(c) - k - 1, k, (t,), kind="deletion", T=T, block_len=8, hash_mode="identity"
    )
    track = BitTrack(c)
    pat = DeletionPattern((38,))
    D = apply_deletions(track, pat, params.geometry)
    intervals = identify_intervals(D, params)
    target = next(iv for iv in intervals if iv[0] <= 38 <= iv[1] + 1)
    trace = Trace()
    count = count_deletions_in_interval(D, target, params, trace)
    assert trace.counters["count.fallbacks"] >= 1, "planted run never tripped a probe"
    assert count == 1


def test_recover_interval_trivial_and_formula():
    g = HeadGeometry((3,))
    seg = as_bits("1011001")
    out = recover_interval_multihead([seg, seg.copy()], 0, g)
    assert np.array_equal(out, seg)
    with pytest.raises(NoCandidate):
        recover_interval_multihead([seg, as_bits("1011000")], 0, g)


def test_recover_interval_single_deletion_unique():
    rng = random.Random(4)
    g = HeadGeometry((6,))
    hits = 0
    for _ in range(200):
        m = rng.randrange(14, 26)
        truth = as_bits([rng.randrange(2) for _ in range(m)])
        q = rng.randrange(1, m - g.span + 1)
        segs = [np.delete(truth, q - 1 + off) for off in g.offsets]
        try:
            out = recover_interval_multihead(list(segs), 1, g)
        except Ambiguous:
            continue  # legal when the constrained filter is off
        assert np.array_equal(out, truth)
        hits += 1
    assert hits > 150


def test_recover_interval_overloaded_never_silently_wrong():
    """count = d errors: the result is Ambiguous, NoCandidate, or the truth."""
    rng = random.Random(5)
    g = HeadGeometry((5,))
    outcomes = {"ok": 0, "flagged": 0}
    for _ in range(200):
        m = rng.randrange(16, 30)
        truth = as_bits([rng.randrange(2) for _ in range(m)])
        qs = sorted(rng.sample(range(1, m - g.span + 1), 2))
        drop = lambda off: [q - 1 + off for q in qs]
        segs = [np.delete(truth, drop(off)) for off in g.offsets]
        try:
            out = recover_interval_multihead(list(segs), 2, g)
            assert np.array_equal(out, truth), "silent wrong answer"
            outcomes["ok"] += 1
        except (Ambiguous, NoCandidate):
            outcomes["flagged"] += 1
    assert outcomes["ok"] + outcomes["flagged"] == 200


def test_recover_interval_pin_disambiguates():
    # found by seed search: ambiguous without the pinned suffix, unique with it
    g = HeadGeometry((4,))
    truth = as_bits("0110000000101111")
    q = 4
    segs = [np.delete(truth, q - 1 + off) for off in g.offsets]
    with pytest.raises(Ambiguous):
        recover_interval_multihead([s.copy() for s in segs], 1, g)
    pinned = {p: int(truth[p - 1]) for p in range(9, 17)}
    out = recover_interval_multihead([s.copy() for s in segs], 1, g, pinned=pinned)
    assert np.array_equal(out, truth)
