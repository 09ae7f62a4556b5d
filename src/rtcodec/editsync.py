"""Synchronization under mixed deletions and insertions.

Mixed edits can cancel in length, so marking uses wider margins
(k*d*t + t per side) than the deletion-only procedure, and the shift probes
look both ways, since an interval's net shift (insertions minus deletions)
can have either sign. Inside an
interval, the iterative head reduction repairs one head per pass: it finds the
first column where the rows split, identifies an error-proximal head from the
minority bit, probes a ladder of windows for the inter-row shift, and splices
the undamaged prefix of one row onto the shift-corrected suffix of its
neighbour, producing a matrix with one row fewer and at least one error less.
"""

from __future__ import annotations

import numpy as np

from .bits import BitArray, IntervalReport, column_agreement, majority, probe_shift, unmarked_intervals
from .errors import MajorityTie, ReductionStuck
from .model import ReadMatrix
from .params import CodeParams
from .trace import Trace


def edit_margin(params: CodeParams) -> int:
    t = params.geometry.distances[0]
    return params.k * params.d * t + t


def identify_edit_intervals(E: ReadMatrix, params: CodeParams) -> list[tuple[int, int]]:
    """All unmarked intervals of the edit marking procedure (1-based, inclusive)."""
    margin = edit_margin(params)
    return unmarked_intervals(E.rows, margin, 2 * margin + 1, E.cols)


def net_shift_of_interval(E: ReadMatrix, interval: tuple[int, int], params: CodeParams) -> int:
    """Insertions minus deletions inside the interval's source region.

    Probes ride windows strided one head distance apart in 4k+1 residue
    classes; within a residue each probe is the inter-row shift accumulated so
    far, the per-residue sums telescope to deletions-minus-insertions, and the
    majority vote flips sign on return.
    """
    b1, b2 = interval
    row1, row2 = E.rows[0], E.rows[1]
    if column_agreement(E.rows)[b1 - 1 : b2].all():
        return 0
    k, T = params.k, params.T
    t = params.geometry.distances[0]
    stride = T + 4 * k + 1
    sums: dict[int, int] = {}
    sentinel = k + 1
    for m in range(1, 4 * k + 2):
        total = 0
        for i in range(1, (b2 - b1 + 1) // t + 3):
            q_im = b1 + (i - 1) * t + (m - 1) * stride
            if q_im - 1 > b2:
                break
            a = q_im + stride + k  # probe window sits one stride later, shrunk by k
            b = q_im + 2 * stride - k - 1
            if b <= len(row1):
                x = probe_shift(row1, row2, a, b, range(-k, k + 1))
                total += x if x is not None else sentinel
        sums[m] = total
    return -majority(sums.values(), "net-shift")


def build_edit_report(E: ReadMatrix, params: CodeParams, total_shift: int) -> IntervalReport:
    """Intervals plus their net shifts.

    The probe vote is only guaranteed inside the period-capped prefix, so the
    trailing interval (which always reaches the last column and may cover
    uncapped redundancy) gets the remainder of ``total_shift``.
    """
    intervals = identify_edit_intervals(E, params)
    agree = column_agreement(E.rows)
    shifts = []
    for b1, b2 in intervals:
        if agree[b1 - 1 : b2].all():
            shifts.append(0)
        elif b2 == E.cols:
            shifts.append(total_shift - sum(shifts))
        else:
            try:
                shifts.append(net_shift_of_interval(E, (b1, b2), params))
            except MajorityTie:
                if b2 <= params.n + params.k + 1:
                    raise
                # probes carry no guarantee beyond the period-capped prefix; a
                # zero placeholder only mis-books the remainder of the trailing
                # interval, which never feeds positions inside the prefix
                shifts.append(0)
    return IntervalReport(tuple(intervals), tuple(shifts))


def recover_outside_bits(E: ReadMatrix, report: IntervalReport, source_len: int) -> BitArray:
    """The edit decoder's outside-bit step (``IntervalReport.outside_bits`` on row 1)."""
    return report.outside_bits(E.rows[0], source_len)


def head_reduction_recover(
    segments: list[BitArray], params: CodeParams, trace: Trace | None = None
) -> tuple[BitArray, int]:
    """Iteratively merge heads until all remaining rows agree.

    Returns (e, d_star): the surviving row and how many rows were left. When
    the segment's error count is below the original head count, e equals the
    source segment (flanks included). ``trace`` receives one
    ``reduction_step`` event per pass that removed a row.
    """
    if trace is None:
        trace = Trace()
    k, T = params.k, params.T
    t = params.geometry.distances[0]
    step_len = T + 3 * k + 1
    n_probe_right = (k * k + 3) // 4 + 3 * k
    rows = [np.asarray(seg, dtype=np.uint8) for seg in segments]
    while True:
        d_cur = len(rows)
        m_cur = len(rows[0])
        stacked = np.stack(rows)
        disagree = np.flatnonzero(~column_agreement(stacked))
        if len(disagree) == 0:
            return rows[0].copy(), d_cur
        i_star = int(disagree[0]) + 1
        col = stacked[:, i_star - 1]
        ones = int(col.sum())
        zeros = d_cur - ones
        tie = ones == zeros
        if tie:
            w_star = 1
        else:
            minority = 1 if ones < zeros else 0
            w_star = int(np.flatnonzero(col == minority)[0]) + 1
        if w_star <= d_cur - 1:
            direction = "right"
            n_probe = n_probe_right

            def window(w: int, ell: int) -> tuple[int, int]:
                v = i_star + 2 * k + (ell - 1) * step_len + (w - w_star) * t
                return v, v + step_len - 1
        else:
            direction = "left"
            n_probe = n_probe_right + 2

            def window(w: int, ell: int) -> tuple[int, int]:
                v = i_star - T - 3 * k - ell * step_len + (w - w_star) * t
                return v, v + step_len - 1

        sentinel = k + 1
        x = [[sentinel] * (n_probe + 1) for _ in range(d_cur - 1)]
        for w in range(1, d_cur):
            for ell in range(1, n_probe + 1):
                a, b = window(w, ell)
                got = probe_shift(rows[w - 1], rows[w], a, b, range(-k, k + 1))
                x[w - 1][ell] = got if got is not None else sentinel
        z = [0] * (n_probe + 1)
        for ell in range(1, n_probe + 1):
            flag = 0
            for w in range(d_cur - 1):
                prev = x[w][ell - 1] if ell > 1 else x[w][1]
                cur = x[w][ell]
                if cur == sentinel:
                    flag = 1
                elif prev != sentinel and cur != prev:
                    flag = 1
            z[ell] = flag
        n_one_runs = sum(1 for ell in range(1, n_probe + 1) if z[ell] == 1 and (ell == 1 or z[ell - 1] == 0))
        need = k - n_one_runs + 2
        run_start = None
        streak = 0
        for ell in range(1, n_probe + 1):
            streak = streak + 1 if z[ell] == 0 else 0
            if streak >= need:
                run_start = ell - need  # z[run_start+1 .. run_start+need] all zero
                break
        if run_start is None:
            raise ReductionStuck(f"no zero run of length {need} among {n_probe} probes")
        cuts = [x[w - 1][run_start + 1] for w in range(1, d_cur)]
        if any(c == sentinel for c in cuts):
            raise ReductionStuck("probe at the chosen run is undefined")
        if len(set(cuts)) != 1:
            raise ReductionStuck(f"inconsistent cut shifts {cuts}")
        new_rows = []
        for w in range(1, d_cur):
            cut = window(w, run_start + 1)[0] + k  # k columns into the run's first window
            shift = cuts[w - 1]
            if not (0 <= cut <= m_cur and 0 <= cut - shift <= m_cur):
                raise ReductionStuck(f"cut column {cut} outside the segment")
            new_rows.append(np.concatenate([rows[w][:cut], rows[w - 1][cut - shift :]]))
        if len({len(r) for r in new_rows}) != 1:
            raise ReductionStuck("spliced rows disagree in length")
        trace.event(
            "reduction_step",
            i_star=i_star,
            w_star=w_star,
            minority_tie=tie,
            direction=direction,
            run_start=run_start,
            one_runs=n_one_runs,
            cut_shift=cuts[0],
        )
        rows = new_rows
