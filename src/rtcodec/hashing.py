"""Pluggable per-block hashes that pin a sequence inside its edit ball.

The contract: ``recover(window, hash(c), len(c), k)`` returns c whenever
``window`` was obtained from c by r deletions and s insertions, r+s <= k.
Three implementations: ``identity`` (the hash is the sequence, zero
compression, usable at any block size), ``vt`` (weighted-sum syndrome,
single-error blocks only), and ``coloring`` (proper coloring of the
k-deletion confusability graph, brute-force scale).

VT and coloring each supply an int ``tag``; one search recovers both: of the
blocks within k edits of the window, keep the one whose tag is the hash. VT
narrows a single-deletion window to one block by its syndrome.

Any color class of a proper confusability coloring is a k-deletion code, and a
k-deletion code also separates mixed r+s <= k edit balls, so a window plus a
color pins at most one sequence even under mixed edits.
"""

from __future__ import annotations

from collections.abc import Collection
from functools import cache, reduce

from .bits import BitArray, as_bits, bits_from_int, edit_distance_at_most, int_from_bits
from .errors import BudgetExceeded, HashRecoveryFailed, UnsupportedK


def _deletions(values: set[int], length: int) -> set[int]:
    """Every (length-1)-bit value left by deleting one bit of a length-bit value."""
    out = set()
    for v in values:
        for j in range(length):  # j low bits stay below the deleted bit
            out.add((v >> (j + 1)) << j | v & ((1 << j) - 1))
    return out


def _insertions(values: set[int], length: int) -> set[int]:
    """Every (length+1)-bit value made by inserting one bit into a length-bit value."""
    out = set()
    for v in values:
        for j in range(length + 1):  # j low bits stay below the inserted bit
            rest = (v >> j) << (j + 1) | v & ((1 << j) - 1)
            out.add(rest)
            out.add(rest | 1 << j)
    return out


def edit_completions(y: BitArray, m: int, k: int) -> set[int]:
    """Every m-bit value that yields window y under r deletions and s
    insertions, r + s <= k: s bits taken out of y, then r = m - len(y) + s put in."""
    level = {int_from_bits(y)}
    out: set[int] = set()
    for s in range(k + 1):
        length = len(y) - s
        if m - length + s > k:
            break
        if s:
            level = _deletions(level, length + 1)
        if length <= m:
            grown = level
            for size in range(length, m):
                grown = _insertions(grown, size)
            out |= grown
    return out


class DeletionHasher:
    """A block hash is an int tag written in ``hash_len`` bits; recovery keeps
    the one candidate within k edits of the window that carries it."""

    name: str = "abstract"

    def hash_len(self, m: int, k: int) -> int:
        raise NotImplementedError

    def tag(self, value: int, m: int, k: int) -> int:
        raise NotImplementedError

    def candidates(self, y: BitArray, target: int, m: int, k: int) -> Collection[int]:
        """m-bit values that may have yielded window y; ``target`` may narrow them."""
        return edit_completions(y, m, k)

    def hash(self, c, k: int) -> BitArray:
        c = as_bits(c)
        width = self.hash_len(len(c), k)
        return bits_from_int(self.tag(int_from_bits(c), len(c), k), width)

    def recover(self, window, h, m: int, k: int) -> BitArray:
        self.hash_len(m, k)  # rejects an m or k the hasher cannot serve
        target = int_from_bits(as_bits(h))
        candidates = self.candidates(as_bits(window), target, m, k)
        matches = {v for v in candidates if self.tag(v, m, k) == target}
        if len(matches) != 1:
            raise HashRecoveryFailed(f"{len(matches)} candidates carry the declared hash")
        return bits_from_int(matches.pop(), m)


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


def _vt_moment(v: int, m: int) -> int:
    """Sum of i * c_i over the m bits c_1..c_m of v, c_1 the MSB."""
    total = 0
    while v:
        total += m + 1 - (v & -v).bit_length()
        v &= v - 1
    return total


class VtHasher(DeletionHasher):
    """Weighted-sum syndrome (sum of i*c_i mod m+1) plus parity; k = 1 only."""

    name = "vt"

    def hash_len(self, m: int, k: int) -> int:
        if k != 1:
            raise UnsupportedK(f"vt hasher corrects exactly one error, got k={k}")
        return m.bit_length() + 1

    def tag(self, value: int, m: int, k: int) -> int:
        return (_vt_moment(value, m) % (m + 1)) << 1 | value.bit_count() & 1

    def candidates(self, y: BitArray, target: int, m: int, k: int) -> Collection[int]:
        if len(y) != m - 1:
            return edit_completions(y, m, k)
        # classical single-deletion bookkeeping: the syndrome deficit says
        # which bit was lost and how many ones (or zeros) lie to its right
        v = int_from_bits(y)
        weight = v.bit_count()
        deficit = ((target >> 1) - _vt_moment(v, m - 1)) % (m + 1)
        if deficit <= weight:
            bit, marks, below = 0, v, deficit
        else:
            bit, marks, below = 1, v ^ ((1 << (m - 1)) - 1), m - deficit
        rest = marks
        for _ in range(below):
            rest &= rest - 1
        j = (marks ^ rest).bit_length()  # low bits below the lost one
        return [(v >> j) << (j + 1) | bit << j | v & ((1 << j) - 1)]


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

    def _table(self, m: int, k: int) -> tuple[list[int], int]:
        key = (m, k)
        if key not in self._tables:

            def windows(v: int) -> set[int]:  # every k-deletion window of v
                return reduce(_deletions, range(m, m - k, -1), {v})

            buckets: dict[int, list[int]] = {}
            for v in range(1 << m):
                for sub in windows(v):
                    buckets.setdefault(sub, []).append(v)
            colors = [-1] * (1 << m)
            for v in range(1 << m):
                used = set()
                for sub in windows(v):
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

    def hash_len(self, m: int, k: int) -> int:
        return max(1, (self.color_count(m, k) - 1).bit_length())

    def tag(self, value: int, m: int, k: int) -> int:
        return self._table(m, k)[0][value]


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
