"""Bit-array helpers and the track file format.

Tracks are binary sequences. In memory they are numpy uint8 arrays of 0/1; on
disk they are either hex files with a ``len=<n>`` header (MSB-first, zero
padding in the final nibble) or raw ASCII 0/1 lines for fixtures. Interval
marking, the interval report, the shift table and the vote serve both decoders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import MajorityTie

BitArray = np.ndarray

UNKNOWN = np.uint8(2)  # sentinel for not-yet-recovered source bits


def as_bits(seq) -> BitArray:
    """Coerce a sequence of 0/1 (list, tuple, str, ndarray) to a uint8 array."""
    if isinstance(seq, np.ndarray):
        arr = seq.astype(np.uint8, copy=False)
    elif isinstance(seq, str):
        arr = np.frombuffer(seq.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(list(seq), dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and arr.max(initial=0) > 1:
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr


def bits_from_int(value: int, width: int) -> BitArray:
    """MSB-first fixed-width binary expansion."""
    if value < 0 or (width < 64 and value >= (1 << width)):
        raise ValueError(f"{value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def int_from_bits(bits: BitArray) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def ceil_log2(n: int) -> int:
    """Smallest w with 2**w >= n (0 for n <= 1)."""
    return (n - 1).bit_length() if n > 1 else 0


def format_track(bits: BitArray) -> str:
    """Hex track format: header line ``len=<n>``, then lowercase hex, MSB-first."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits)
    return f"len={n}\n{np.packbits(bits).tobytes().hex()[: (n + 3) // 4]}\n"


# ASCII code -> nibble value, 255 for anything that is not a hex digit
_HEX_VALUE = np.full(256, 255, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_HEX_VALUE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)


def parse_track(text: str) -> BitArray:
    """Parse either the hex format (either case) or raw ASCII 0/1 lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty track file")
    if lines[0].startswith("len="):
        try:
            n = int(lines[0][4:])
        except ValueError as e:
            raise ValueError(f"bad length header: {lines[0]!r}") from e
        hexstr = "".join(lines[1:])
        if len(hexstr) != (n + 3) // 4:
            raise ValueError(f"hex payload has {len(hexstr)} digits, expected {(n + 3) // 4}")
        nibbles = _HEX_VALUE[np.frombuffer(hexstr.encode("ascii", "replace"), dtype=np.uint8)]
        if (nibbles == 255).any():
            raise ValueError("hex payload holds a non-hex digit")
        out = np.unpackbits(nibbles[:, None], axis=1)[:, 4:].ravel()
        if out[n:].any():
            raise ValueError("nonzero padding bits after declared length")
        return out[:n]
    payload = "".join(lines)
    if set(payload) - {"0", "1"}:
        raise ValueError("ASCII track may contain only 0/1")
    return as_bits(payload)


def column_agreement(rows: np.ndarray) -> np.ndarray:
    """Per column, whether every row holds the same bit."""
    return (rows == rows[0]).all(axis=0)


def unmarked_intervals(rows: np.ndarray, margin: int, min_run: int, last: int) -> list[tuple[int, int]]:
    """Read intervals (1-based, inclusive) left unmarked by agreement marking.

    A leading run of agreeing columns is marked up to ``margin`` columns
    before its end. Every agreement run of at least ``min_run`` columns that
    starts at or before column ``last`` has its interior marked, keeping
    ``margin`` columns at each end and marking nothing past column ``last``.
    """
    run_starts, run_lengths = agreement_run_starts(column_agreement(rows))
    marked = []  # 0-based half-open column ranges, in order; only the first two may overlap
    if len(run_starts) and run_starts[0] == 0 and run_lengths[0] > margin:
        marked.append((0, int(run_lengths[0]) - margin))
    walked = (run_starts < last) & (run_lengths >= min_run)  # 0-based starts: column s + 1 <= last
    for s, L in zip(run_starts[walked].tolist(), run_lengths[walked].tolist()):
        lo, hi = s + margin, min(s + L, last) - margin
        if lo < hi:
            marked.append((lo, hi))
    intervals, col = [], 0  # col: the first column past every range so far
    for lo, hi in marked:
        if lo > col:
            intervals.append((col + 1, lo))
        col = max(col, hi)
    if col < rows.shape[1]:
        intervals.append((col + 1, rows.shape[1]))
    return intervals


@dataclass(frozen=True)
class IntervalReport:
    """Read intervals of head 1 with the net shift each one holds.

    A shift is insertions minus deletions, so an interval with c deletions
    has shift -c. Outside the intervals every read column shows one source
    bit, displaced by the shifts of the intervals before it.
    """

    intervals: tuple[tuple[int, int], ...]
    shifts: tuple[int, ...]

    @property
    def source_intervals(self) -> tuple[tuple[int, int], ...]:
        """Source interval j: read interval j with the shifts before and inside it undone."""
        out = []
        before = 0
        for (s, e), x in zip(self.intervals, self.shifts):
            out.append((s - before, e - before - x))
            before += x
        return tuple(out)

    def outside_bits(self, row1: BitArray, source_len: int) -> BitArray:
        """Source positions 1..source_len filled from the row-1 columns outside
        all intervals; UNKNOWN elsewhere.

        The gap after interval j shows the source positions right after source
        interval j. Where gaps map to overlapping source ranges, the later gap
        wins.
        """
        out = np.full(source_len, UNKNOWN, dtype=np.uint8)
        col, before = 1, 0  # first column of the gap, net shift of the intervals before it
        for (s, e), x in zip(self.intervals + ((len(row1) + 1, 0),), self.shifts + (0,)):
            lo, hi = max(col, 1 + before), min(s - 1, source_len + before)
            if lo <= hi:
                out[lo - 1 - before : hi - before] = row1[lo - 1 : hi]
            col, before = e + 1, before + x
        return out


def shift_table(rowA: BitArray, rowB: BitArray, a, b, shifts) -> list[int | None]:
    """Per window [a_i, b_i], the unique x in ``shifts`` with rowA[a, b-x] == rowB[a+x, b].

    1-based inclusive windows; a negative x compares rowA[a-x, b] with
    rowB[a, b+x]. None when the window leaves rowA or is no longer than the
    largest shift, and when no x or several x match.

    One table row per shift x marks the mismatches rowA[j] != rowB[j+x], over
    only the columns the windows span (a j whose rowB column lies past rowB's
    end is a mismatch). x matches a window when the window's range of j,
    [a-1+max(-x,0), b-max(x,0)), holds none; one ``logical_or.reduceat``
    answers every (shift, window) pair.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    shifts = np.asarray(shifts, dtype=np.int64)
    out: list[int | None] = [None] * len(a)
    probed = np.flatnonzero((a >= 1) & (b <= len(rowA)) & (b - a + 1 > np.abs(shifts).max()))
    if not len(probed):
        return out
    probed = probed[np.argsort(a[probed], kind="stable")]  # so that the gaps between ranges stay short
    a, b = a[probed], b[probed]
    lo, hi = int(a.min()) - 1, int(b.max())
    x_lo, x_hi = int(shifts.min()), int(shifts.max())
    # rowB over columns lo+x_lo .. hi+x_hi, holding 2 (never a bit) past its ends
    padded = np.full(hi - lo + x_hi - x_lo, 2, dtype=np.uint8)
    src_lo, src_hi = max(lo + x_lo, 0), min(hi + x_hi, len(rowB))
    if src_lo < src_hi:
        padded[src_lo - lo - x_lo : src_hi - lo - x_lo] = rowB[src_lo:src_hi]
    shifted = np.lib.stride_tricks.sliding_window_view(padded, hi - lo)[shifts - x_lo]
    # one row per shift, plus a spare column so that every range ends inside its row
    mismatch = np.ones((len(shifts), hi - lo + 1), dtype=bool)
    np.not_equal(shifted, rowA[lo:hi], out=mismatch[:, :-1])
    row = np.arange(len(shifts))[:, None] * (hi - lo + 1)
    starts = row + a - 1 - lo + np.maximum(-shifts, 0)[:, None]
    ends = row + b - lo - np.maximum(shifts, 0)[:, None]
    bounds = np.stack([starts, ends], axis=-1).ravel()  # reduceat's odd slices, the gaps, are dropped
    match = ~np.logical_or.reduceat(mismatch.ravel(), bounds)[::2].reshape(len(shifts), -1)
    unique = match.sum(axis=0) == 1
    for i, x in zip(probed[unique].tolist(), shifts[match.argmax(axis=0)][unique].tolist()):
        out[i] = x
    return out


def majority(values, what: str) -> int:
    """The most common of ``values``; MajorityTie when two values lead."""
    top = Counter(values).most_common()
    if len(top) > 1 and top[0][1] == top[1][1]:
        raise MajorityTie(f"{what} vote tied between {top[0][0]} and {top[1][0]}")
    return top[0][0]


def agreement_run_starts(equal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal True-runs of ``equal`` as (starts, lengths), in order.

    Built from the False indices alone, so the cost is that of one scan for them.
    """
    breaks = np.concatenate(([-1], np.flatnonzero(np.logical_not(equal)), [len(equal)]))
    lengths = np.diff(breaks) - 1
    nonempty = lengths > 0
    return breaks[:-1][nonempty] + 1, lengths[nonempty]


# a slide of the k-edit check compares this many columns first, then chunks this much larger each time
_SLIDE_FIRST, _SLIDE_GROWTH = 64, 4


def edit_distance_at_most(a: BitArray, b: BitArray, limit: int) -> int | None:
    """Insert/delete edit distance between a and b if <= limit, else None.

    Greedy furthest-reaching diagonal search (Myers 1986): O(limit) rounds,
    each sliding every live diagonal along its matches. A slide compares 64
    columns, then chunks 4x larger each time, and stops at the first chunk
    that holds a mismatch, so it costs about the columns it slides past, not
    the words' length: O((len(a) + len(b)) * limit) at worst, and a few short
    chunks per diagonal when the words are close.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    n, m = len(a), len(b)
    if abs(n - m) > limit:
        return None

    def slide(x: int, y: int) -> int:
        span = min(n - x, m - y)
        done, chunk = 0, _SLIDE_FIRST
        while done < span:
            stop = min(done + chunk, span)
            neq = a[x + done : x + stop] != b[y + done : y + stop]
            first = int(neq.argmax())  # the first True, or 0 when there is none
            if neq[first]:
                return x + done + first
            done, chunk = stop, chunk * _SLIDE_GROWTH
        return x + max(span, 0)

    furthest = {1: 0}  # diagonal -> furthest x reached
    for dist in range(0, limit + 1):
        for diag in range(-dist, dist + 1, 2):
            if diag == -dist or (diag != dist and furthest.get(diag - 1, -1) < furthest.get(diag + 1, -1)):
                x = furthest.get(diag + 1, 0)
            else:
                x = furthest.get(diag - 1, -1) + 1
            y = x - diag
            if 0 <= x <= n and 0 <= y <= m:
                x = slide(x, y)
            furthest[diag] = x
            if x >= n and x - diag >= m:
                return dist
    return None
