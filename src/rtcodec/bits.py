"""Bit-array helpers and the track file format.

Tracks are binary sequences. In memory they are numpy uint8 arrays of 0/1; on
disk they are either hex files with a ``len=<n>`` header (MSB-first, zero
padding in the final nibble) or raw ASCII 0/1 lines for fixtures. Interval
marking, the interval report, the shift probe and the vote serve both decoders.
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
    cols = rows.shape[1]
    runs = agreement_run_starts(column_agreement(rows))
    marked = np.zeros(cols, dtype=bool)
    L = int(runs[0]) if cols else 0
    if L > margin:
        marked[: L - margin] = True
    i = 1
    while i <= last:
        L = int(runs[i - 1])
        if L >= min_run:
            lo, hi = i + margin, min(i + L - 1, last) - margin
            if lo <= hi:
                marked[lo - 1 : hi] = True
        i += max(L, 1)  # a column inside a run starts only a shorter run
    edges = np.diff(np.concatenate(([1], marked, [1])).astype(np.int8))
    starts, ends = np.flatnonzero(edges == -1), np.flatnonzero(edges == 1)
    return [(int(s) + 1, int(e)) for s, e in zip(starts, ends)]


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


def probe_shift(rowA: BitArray, rowB: BitArray, a: int, b: int, shifts) -> int | None:
    """The unique x in ``shifts`` with rowA[a, b-x] == rowB[a+x, b].

    1-based inclusive window [a, b]; a negative x compares rowA[a-x, b] with
    rowB[a, b+x]. None when the window leaves rowA or is no longer than the
    largest shift, and when no x or several x match.
    """
    if a < 1 or b > len(rowA) or b - a + 1 <= max(map(abs, shifts)):
        return None
    found = None
    for x in shifts:
        lo, hi = max(x, 0), max(-x, 0)
        if np.array_equal(rowA[a - 1 + hi : b - lo], rowB[a - 1 + lo : b - hi]):
            if found is not None:
                return None
            found = x
    return found


def majority(values, what: str) -> int:
    """The most common of ``values``; MajorityTie when two values lead."""
    top = Counter(values).most_common()
    if len(top) > 1 and top[0][1] == top[1][1]:
        raise MajorityTie(f"{what} vote tied between {top[0][0]} and {top[1][0]}")
    return top[0][0]


def agreement_run_starts(equal: np.ndarray) -> np.ndarray:
    """For each index i, the length of the True-run of ``equal`` starting at i."""
    n = len(equal)
    idx = np.arange(n, dtype=np.int64)
    # the first False at or after each index (n if none): a reverse running minimum
    nxt = np.minimum.accumulate(np.where(equal, n, idx)[::-1])[::-1]
    return nxt - idx


def edit_distance_at_most(a: BitArray, b: BitArray, limit: int) -> int | None:
    """Insert/delete edit distance between a and b if <= limit, else None.

    Greedy furthest-reaching diagonal search: O(limit) rounds, each sliding
    along matches with one vectorized comparison per live diagonal.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    n, m = len(a), len(b)
    if abs(n - m) > limit:
        return None

    def slide(x: int, y: int) -> int:
        span = min(n - x, m - y)
        if span <= 0:
            return x
        neq = np.flatnonzero(a[x : x + span] != b[y : y + span])
        return x + (int(neq[0]) if len(neq) else span)

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
