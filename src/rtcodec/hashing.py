"""Pluggable per-block hashes that pin a sequence inside its edit ball.

The contract: ``recover(window, hash(c), len(c), k)`` returns c whenever
``window`` was obtained from c by r deletions and s insertions, r+s <= k.
Three implementations: ``identity`` (the hash is the sequence, zero
compression, usable at any block size), ``vt`` (weighted-sum syndrome,
single-error blocks only), and ``coloring`` (proper coloring of the
k-deletion confusability graph, brute-force scale).

Any color class of a proper confusability coloring is a k-deletion code, and a
k-deletion code also separates mixed r+s <= k edit balls, so a window plus a
color pins at most one sequence even under mixed edits.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .bits import BitArray, as_bits, bits_from_int, edit_distance_at_most, int_from_bits
from .errors import BudgetExceeded, HashRecoveryFailed, UnsupportedK


class DeletionHasher:
    """Interface: hash/recover pair plus the advertised hash length."""

    name: str = "abstract"

    def hash_len(self, m: int, k: int) -> int:
        raise NotImplementedError

    def hash(self, c, k: int) -> BitArray:
        raise NotImplementedError

    def recover(self, window, h, m: int, k: int) -> BitArray:
        raise NotImplementedError


class IdentityHasher(DeletionHasher):
    """The hash is the sequence itself; recovery checks the window fits its ball."""

    name = "identity"

    def hash_len(self, m: int, k: int) -> int:
        return m

    def hash(self, c, k: int) -> BitArray:
        return as_bits(c).copy()

    def recover(self, window, h, m: int, k: int) -> BitArray:
        h = as_bits(h)
        window = as_bits(window)
        if len(h) != m:
            raise HashRecoveryFailed(f"hash length {len(h)} does not match block length {m}")
        if edit_distance_at_most(window, h, k) is None:
            raise HashRecoveryFailed("window is not within the edit budget of the hashed block")
        return h.copy()


class VtHasher(DeletionHasher):
    """Weighted-sum syndrome (sum of i*c_i mod m+1) plus parity; k = 1 only."""

    name = "vt"

    def _check_k(self, k: int) -> None:
        if k != 1:
            raise UnsupportedK(f"vt hasher corrects exactly one error, got k={k}")

    def hash_len(self, m: int, k: int) -> int:
        self._check_k(k)
        return m.bit_length() + 1

    def hash(self, c, k: int) -> BitArray:
        self._check_k(k)
        c = as_bits(c)
        m = len(c)
        syndrome = int(np.dot(np.arange(1, m + 1), c) % (m + 1))
        parity = int(c.sum() % 2)
        return np.concatenate([bits_from_int(syndrome, m.bit_length()), [np.uint8(parity)]])

    def recover(self, window, h, m: int, k: int) -> BitArray:
        self._check_k(k)
        y = as_bits(window)
        syndrome = int_from_bits(h[:-1])
        parity = int(h[-1])
        if len(y) == m:
            out = y
        elif len(y) == m - 1:
            out = self._insert_one(y, m, syndrome)
        elif len(y) == m + 1:
            out = self._delete_one(y, m, syndrome, parity)
        else:
            raise HashRecoveryFailed(f"window length {len(y)} incompatible with one edit on {m} bits")
        if out is None:
            raise HashRecoveryFailed("no sequence matches the syndrome")
        if int(out.sum() % 2) != parity or int(np.dot(np.arange(1, m + 1), out) % (m + 1)) != syndrome:
            raise HashRecoveryFailed("recovered sequence fails the syndrome check")
        return out

    @staticmethod
    def _insert_one(y: BitArray, m: int, syndrome: int) -> BitArray | None:
        """Classical single-deletion correction by weight bookkeeping."""
        deficit = (syndrome - int(np.dot(np.arange(1, m), y))) % (m + 1)
        weight = int(y.sum())
        out = np.empty(m, dtype=np.uint8)
        if deficit <= weight:
            # deleted bit was 0; ones to its right sum to the deficit
            ones_right = 0
            pos = len(y)
            while pos > 0 and ones_right < deficit:
                pos -= 1
                ones_right += int(y[pos])
            if ones_right != deficit:
                return None
            out[:pos] = y[:pos]
            out[pos] = 0
            out[pos + 1 :] = y[pos:]
        else:
            # deleted bit was 1; zeros to its left make up deficit - weight - 1
            zeros_needed = deficit - weight - 1
            zeros = 0
            pos = 0
            while pos < len(y) and zeros < zeros_needed:
                zeros += 1 - int(y[pos])
                pos += 1
            if zeros != zeros_needed:
                return None
            while pos < len(y) and y[pos] == 1:
                pos += 1
            out[:pos] = y[:pos]
            out[pos] = 1
            out[pos + 1 :] = y[pos:]
        return out

    @staticmethod
    def _delete_one(y: BitArray, m: int, syndrome: int, parity: int) -> BitArray | None:
        """One inserted bit: scan removals, dedupe by content via run structure."""
        seen_start = -1
        for pos in range(m + 1):
            if pos > 0 and y[pos] == y[pos - 1]:
                continue  # removing either end of a run gives the same sequence
            cand = np.delete(y, pos)
            if int(cand.sum() % 2) == parity and int(np.dot(np.arange(1, m + 1), cand) % (m + 1)) == syndrome:
                if seen_start >= 0 and not np.array_equal(cand, np.delete(y, seen_start)):
                    return None
                if seen_start < 0:
                    seen_start = pos
        return np.delete(y, seen_start) if seen_start >= 0 else None


class ColoringHasher(DeletionHasher):
    """Greedy proper coloring of the k-deletion confusability graph on {0,1}^m.

    Sequences sharing an (m-k)-subsequence get distinct colors, so all
    candidates compatible with a window form a rainbow clique and the color
    index pins the original. Tables are built per (m, k) and cached.
    """

    name = "coloring"
    budget = 16  # widest block whose 2^m-vertex graph is colored

    def __init__(self):
        self._tables: dict[tuple[int, int], tuple[list[int], int]] = {}

    def _check(self, m: int, k: int) -> None:
        if m > self.budget:
            raise BudgetExceeded(f"coloring over {m}-bit blocks exceeds budget {self.budget}")

    @staticmethod
    def _subsequences(value: int, m: int, k: int) -> set[tuple[int, int]]:
        """All (length, value) results of k deletions from an m-bit value."""
        level = {(m, value)}
        for _ in range(k):
            nxt = set()
            for length, v in level:
                for pos in range(length):
                    keep_high = (v >> (length - pos)) << (length - 1 - pos)
                    keep_low = v & ((1 << (length - 1 - pos)) - 1)
                    nxt.add((length - 1, keep_high | keep_low))
            level = nxt
        return level

    def _table(self, m: int, k: int) -> tuple[list[int], int]:
        key = (m, k)
        if key not in self._tables:
            buckets: dict[tuple[int, int], list[int]] = {}
            for v in range(1 << m):
                for sub in self._subsequences(v, m, k):
                    buckets.setdefault(sub, []).append(v)
            colors = [-1] * (1 << m)
            for v in range(1 << m):
                used = set()
                for sub in self._subsequences(v, m, k):
                    for u in buckets[sub]:
                        if u != v and colors[u] >= 0:
                            used.add(colors[u])
                c = 0
                while c in used:
                    c += 1
                colors[v] = c
            n_colors = max(colors) + 1
            self._tables[key] = (colors, n_colors)
        return self._tables[key]

    def color_count(self, m: int, k: int) -> int:
        self._check(m, k)
        return self._table(m, k)[1]

    def color_of(self, c, k: int) -> int:
        bits = as_bits(c)
        self._check(len(bits), k)
        return self._table(len(bits), k)[0][int_from_bits(bits)]

    def hash_len(self, m: int, k: int) -> int:
        self._check(m, k)
        n_colors = self._table(m, k)[1]
        return max(1, (n_colors - 1).bit_length())

    def hash(self, c, k: int) -> BitArray:
        bits = as_bits(c)
        m = len(bits)
        return bits_from_int(self.color_of(bits, k), self.hash_len(m, k))

    def recover(self, window, h, m: int, k: int) -> BitArray:
        self._check(m, k)
        y = as_bits(window)
        target = int_from_bits(as_bits(h))
        colors, _ = self._table(m, k)
        matches: set[int] = set()
        for cand in self._edit_completions(y, m, k):
            if colors[cand] == target:
                matches.add(cand)
        if len(matches) != 1:
            raise HashRecoveryFailed(f"{len(matches)} candidates share the declared color")
        return bits_from_int(matches.pop(), m)

    @classmethod
    def _edit_completions(cls, y: BitArray, m: int, k: int) -> set[int]:
        """All m-bit values that can yield window y under r deletions + s insertions, r+s <= k."""
        y_int = int_from_bits(y) if len(y) else 0
        L = len(y)
        out: set[int] = set()
        for s in range(k + 1):
            r = m - L + s
            if r < 0 or r + s > k or s > L:
                continue
            for length, v in cls._subsequences(y_int, L, s):
                grown = {(length, v)}
                for _ in range(r):
                    nxt = set()
                    for ln, w in grown:
                        for pos in range(ln + 1):
                            hi = (w >> (ln - pos)) << (ln - pos + 1)
                            lo = w & ((1 << (ln - pos)) - 1)
                            for b in (0, 1):
                                nxt.add((ln + 1, hi | (b << (ln - pos)) | lo))
                    grown = nxt
                out.update(v2 for ln2, v2 in grown if ln2 == m)
        return out


_REGISTRY = {
    "identity": IdentityHasher,
    "vt": VtHasher,
    "coloring": ColoringHasher,
}


@cache  # one instance per name, so coloring tables are built once
def make_hasher(name: str) -> DeletionHasher:
    if name not in _REGISTRY:
        raise ValueError(f"unknown hasher {name!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def block_bounds(total_len: int, block_len: int) -> list[tuple[int, int]]:
    """1-based inclusive (start, end) per block; the last block may be short."""
    count = (total_len + block_len - 1) // block_len
    return [(i * block_len + 1, min((i + 1) * block_len, total_len)) for i in range(count)]
