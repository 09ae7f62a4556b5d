"""Deletion-mode read synchronization.

Given the d reads of a period-capped track, marking isolates the deletions
into at most k disjoint read intervals: long stretches where all rows agree
cannot contain deletions (a deletion would force a long low-period window),
so their interiors are marked and the unmarked remainder brackets the errors.
Per-interval deletion counts then come from majority voting over row-1/row-2
shift probes spaced one head distance apart; the report type, the probe, the
vote and the alignment of everything outside the intervals are shared with
edit mode (``bits``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .bits import BitArray, IntervalReport, as_bits, majority, probe_shift, unmarked_intervals
from .errors import Ambiguous, BudgetExceeded, MajorityTie, NoCandidate
from .model import HeadGeometry, ReadMatrix
from .params import CodeParams
from .periodicity import max_periodic_run
from .trace import Trace


def identify_intervals(D: ReadMatrix, params: CodeParams) -> list[tuple[int, int]]:
    """Unmarked-interval identification over read columns (1-based, inclusive).

    Marks interiors of agreement runs, keeping a margin of t_max on each side
    and never marking past column n+1; returns all unmarked intervals, or the
    k with smallest starts when there are more.
    """
    t_max = params.geometry.t_max
    last = min(params.n + 1, D.cols)
    return unmarked_intervals(D.rows, t_max, 2 * t_max + params.T + 1, last)[: params.k]


def count_deletions_in_interval(
    D: ReadMatrix,
    interval: tuple[int, int],
    params: CodeParams,
    trace: Trace | None = None,
) -> int:
    """Deletions of head 1 inside the source interval behind a read interval.

    Only the first two reads are used. Windows of length T+k+1 tile the
    interval with stride t1 in 4k+1 residue classes; each window yields the
    row-1/row-2 shift accumulated up to it, the per-residue sums telescope to
    the count, and the majority over residues wins. ``trace`` counts
    ``count.fallbacks`` (windows that matched no shift or several, read as 0)
    and receives one ``count_vote`` event with the per-residue sums.
    """
    if trace is None:
        trace = Trace()
    b_min, b_max = interval
    row1, row2 = D.rows[0], D.rows[1]
    k, T = params.k, params.T
    t1 = params.geometry.distances[0]
    stride = T + 2 * k + 1
    win = T + k + 1
    sums: dict[int, int] = {m: 0 for m in range(1, 4 * k + 2)}
    length = b_max - b_min + 1
    for i in range(1, (length + t1 - 1) // t1 + 1):
        for m in range(1, 4 * k + 2):
            p = b_min + (i - 1) * t1 + (m - 1) * stride
            q = p + win - 1  # untruncated end; window in the probe set only if it fits
            if q > b_max:
                continue
            x_val = probe_shift(row1, row2, p, q, range(k + 1))
            if x_val is None:
                x_val = 0
                trace.counters["count.fallbacks"] += 1
            sums[m] += x_val
    trace.event("count_vote", interval=interval, sums=list(sums.values()))
    return majority(sums.values(), "count")


def build_report(
    D: ReadMatrix,
    params: CodeParams,
    total_shift: int | None = None,
    trace: Trace | None = None,
) -> IntervalReport:
    """Identify intervals and determine their shifts (minus their deletion counts).

    The shift-probe vote is only guaranteed inside the period-capped prefix.
    When ``total_shift`` (the read length minus the codeword length) is
    supplied, the trailing interval (which always reaches the last read column
    and may extend into uncapped redundancy) gets the remainder instead.
    ``trace`` receives what each probe count records (see
    ``count_deletions_in_interval``).
    """
    intervals = identify_intervals(D, params)
    shifts = []
    for s, e in intervals:
        if total_shift is not None and e == D.cols:
            remainder = total_shift - sum(shifts)
            if remainder > 0:
                raise MajorityTie("interval counts exceed the total deletion count")
            shifts.append(remainder)
        else:
            shifts.append(-count_deletions_in_interval(D, (s, e), params, trace))
    return IntervalReport(tuple(intervals), tuple(shifts))


def align_and_recover_clean_bits(D: ReadMatrix, report: IntervalReport, source_len: int) -> BitArray:
    """The deletion decoder's outside-bit step (``IntervalReport.outside_bits`` on row 1)."""
    return report.outside_bits(D.rows[0], source_len)


def recover_interval_multihead(
    segments: list[BitArray],
    count: int,
    geometry: HeadGeometry,
    period_filter: tuple[int, int, int] | None = None,
    pinned: dict[int, int] | None = None,
    budget: int = 250_000,
) -> BitArray:
    """Search for the unique source segment behind d aligned interval reads.

    Candidates are the insertions of ``count`` bits into the head-1 segment;
    each must reproduce every other head under the common shifted deletion
    pattern. ``period_filter=(prefix_len, k, T)`` drops candidates whose first
    prefix_len bits contain a period-<=k window longer than T; ``pinned`` maps
    1-based candidate positions to required bit values (used to anchor the
    part of a tail interval that overlaps already-recovered redundancy).
    Exactly one candidate content must survive.
    """
    d = len(segments)
    seg1 = as_bits(segments[0])
    seg_len = len(seg1)
    m = seg_len + count
    offsets = geometry.offsets
    span = geometry.span
    if count == 0:
        for w in range(1, d):
            if not np.array_equal(segments[w], seg1):
                raise NoCandidate("error-free interval but reads disagree")
        return seg1.copy()
    if m - span < count:
        raise NoCandidate("interval too short for the claimed deletion count")

    # disagreement columns bound where the deletions can sit
    fd, ld = None, None
    for w in range(1, d):
        diff = np.flatnonzero(segments[w] != seg1)
        if len(diff):
            fd = int(diff[0]) + 1 if fd is None else min(fd, int(diff[0]) + 1)
            ld = int(diff[-1]) + 1 if ld is None else max(ld, int(diff[-1]) + 1)
    hi_anchor = fd if fd is not None else m - span  # min(Q) <= first disagreement
    lo_anchor = (ld - span + count) if ld is not None else 1  # max(Q) >= last - span + count

    n_positions = m - span
    if comb(n_positions, count) > budget:
        raise BudgetExceeded(f"{comb(n_positions, count)} patterns exceed budget {budget}")

    survivors: dict[bytes, BitArray] = {}
    for q in combinations(range(1, n_positions + 1), count):
        if q[0] > hi_anchor or q[-1] < lo_anchor:
            continue
        insert_at = [p - 1 - j for j, p in enumerate(q)]  # original-index form
        for values in range(1 << count):
            bits = [(values >> (count - 1 - j)) & 1 for j in range(count)]
            cand = np.insert(seg1, insert_at, bits)
            ok = True
            for w in range(1, d):
                drop = [p - 1 + offsets[w] for p in q]
                if not np.array_equal(np.delete(cand, drop), segments[w]):
                    ok = False
                    break
            if not ok:
                continue
            if pinned and any(cand[p - 1] != v for p, v in pinned.items()):
                continue
            if period_filter is not None:
                prefix_len, kk, cap = period_filter
                if prefix_len > 0 and max_periodic_run(cand[:prefix_len], kk) > cap:
                    continue
            survivors[cand.tobytes()] = cand
            if len(survivors) > 1:
                raise Ambiguous("multiple consistent interval contents")
    if not survivors:
        raise NoCandidate("no interval content consistent with all reads")
    return next(iter(survivors.values()))
