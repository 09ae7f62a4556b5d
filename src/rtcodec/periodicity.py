"""Periodic-run statistics and the injective period-capping transform.

A window has period p when every bit equals the bit p places later. The
synchronization machinery needs tracks whose longest window of period <= k is
short; ``cap_periods`` rewrites an arbitrary n-bit track into an (n+k+1)-bit
track whose longest such window is at most 3k + ceil(log2 n) + 2, and
``uncap_periods`` inverts it exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import BitArray, agreement_run_starts, as_bits, bits_from_int, ceil_log2, int_from_bits
from .errors import NotInImage


def longest_periodic_run(bits, period: int) -> int:
    """Length of the longest window w with w[i] == w[i+period] throughout."""
    c = as_bits(bits)
    n = len(c)
    if not 1 <= period <= n:
        raise ValueError(f"period must be in [1, {n}]")
    return int(agreement_run_starts(c[period:] == c[:-period]).max(initial=0)) + period


def max_periodic_run(bits, k: int) -> int:
    """max over periods 1..k of longest_periodic_run (0-length input gives 0)."""
    c = as_bits(bits)
    if len(c) == 0:
        return 0
    return max(longest_periodic_run(c, p) for p in range(1, min(k, len(c)) + 1))


def period_cap(n: int, k: int) -> int:
    """Guaranteed bound on the longest period-<=k window after capping."""
    return 3 * k + ceil_log2(n) + 2


def _window_len(n: int, k: int) -> int:
    return 2 * k + ceil_log2(n) + 2


def _smallest_period_at(c: np.ndarray, start: int, w: int, k: int) -> int | None:
    """Smallest p <= k such that c[start:start+w] has period p, or None."""
    win = c[start : start + w]
    for p in range(1, k + 1):
        if win[p:].tobytes() == win[:-p].tobytes():
            return p
    return None


def _first_periodic_window(c: np.ndarray, start: int, stop: int, w: int, k: int) -> tuple[int, int] | None:
    """First j in [start, stop) whose window c[j:j+w] has a period <= k, with
    the smallest such period; None if every window there is free.

    Row p-1 of ``mism`` holds prefix sums of c[t] != c[t+p], so a window has
    period p exactly when its w-p comparisons add up to zero mismatches.
    """
    seg = c[start : stop - 1 + w]
    m = len(seg)
    shifted = sliding_window_view(np.concatenate([seg, np.zeros(k, dtype=np.uint8)]), m)[1:]
    mism = np.zeros((k, m + 1), dtype=np.int32)
    np.cumsum(shifted != seg, axis=1, out=mism[:, 1:])
    span = stop - start
    ends = np.arange(span) + (w - np.arange(1, k + 1))[:, None]
    periodic = np.take_along_axis(mism, ends, axis=1) == mism[:, :span]
    hits = np.flatnonzero(periodic.any(axis=0))
    if not len(hits):
        return None
    j = int(hits[0])
    return start + j, int(np.argmax(periodic[:, j])) + 1


def cap_periods(bits, k: int) -> BitArray:
    """Injective transform to length n+k+1 with bounded low-period runs.

    Repeatedly finds the first window of length 2k + ceil(log2 n) + 2 having
    period <= k; each such window is excised and replaced by an appended block
    that records the window's smallest period, its first period's bits, and
    the excision index, framed so the appended region can never itself form a
    long low-period run.

    After an excision at i the scan resumes at max(0, i-w+1), not at 0: a
    window starting at or before i-w lies wholly before i, so the excision
    leaves it unchanged, and the scan that reached i already found it free of
    low periods. The first periodic window is therefore the same one a scan
    from 0 would find, and so is the output. The window at the resume point is
    tested on its own first (on a highly periodic track it is the next
    excision); past it the scan tests whole chunks of windows at once, the
    chunk doubling while no window is found, so the work before each excision
    stays proportional to the distance scanned.
    """
    c = as_bits(bits)
    n = len(c)
    if k < 1:
        raise ValueError("k must be >= 1")
    width = ceil_log2(n)
    w = _window_len(n, k)
    f = np.concatenate([c, np.ones(k, dtype=np.uint8), np.zeros(1, dtype=np.uint8)])
    n_live = n  # prefix of f still holding original (uncapped) bits
    i = 0  # 0-based scan index
    chunk = 4 * w
    while i + w <= n_live:
        p_min = _smallest_period_at(f, i, w, k)
        if p_min is None:
            stop = min(i + 1 + chunk, n_live - w + 1)
            hit = _first_periodic_window(f, i + 1, stop, w, k) if stop > i + 1 else None
            if hit is None:
                i = stop
                chunk *= 2
                continue
            i, p_min = hit
        block = np.zeros(w, dtype=np.uint8)  # ends in k+1 framing zeros
        block[: k - p_min] = 1
        block[k - p_min + 1 : k + 1] = f[i : i + p_min]
        block[k + 1 : k + 1 + width] = bits_from_int(i + 1, width)  # excision index, 1-based
        f[i:-w] = f[i + w :]
        f[-w:] = block
        n_live -= w
        i = max(0, i - w + 1)
        chunk = 4 * w
    return f


def uncap_periods(bits, k: int, n: int) -> BitArray:
    """Exact inverse of cap_periods; raises NotInImage on malformed input."""
    f = as_bits(bits)
    width = ceil_log2(n)
    w = _window_len(n, k)
    if len(f) != n + k + 1:
        raise NotInImage(f"expected length {n + k + 1}, got {len(f)}")
    c = f.copy()
    terminator = np.concatenate([np.ones(k, dtype=np.uint8), np.zeros(1, dtype=np.uint8)])
    max_rounds = (n + k + 1) // w + 1
    rounds = 0
    while not np.array_equal(c[n : n + k + 1], terminator):
        rounds += 1
        if rounds > max_rounds:
            raise NotInImage("undo loop exceeded the excision bound")
        block = c[n + k + 1 - w :]
        ones = 0
        while ones < len(block) and block[ones] == 1:
            ones += 1
        if ones > k - 1:
            raise NotInImage("run of ones in trailing block leaves no room for a period")
        p_min = k - ones
        prefix = block[ones + 1 : ones + 1 + p_min]
        idx = int_from_bits(block[k + 1 : k + 1 + width])
        if block[k + 1 + width :].any():
            raise NotInImage("framing bits of appended block are not all zero")
        live_end = n + k + 1 - w  # 0-based end of the region that shifts right
        if not 1 <= idx <= live_end + 1:
            raise NotInImage(f"excision index {idx} out of range")
        window = np.resize(prefix, w)
        c = np.concatenate([c[: idx - 1], window, c[idx - 1 : live_end]])
        if len(c) != n + k + 1:
            raise NotInImage("length drifted during undo")
    return c[:n]
