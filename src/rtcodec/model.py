"""Multi-head shift-error channel model.

A track of n bits is read by d fixed heads. A shift error drops (deletion) or
repeats/injects (insertion) cells; because the heads sit at fixed distances
t_1..t_{d-1} along the track, the error positions seen by head i+1 are those of
head i translated by t_i. Patterns therefore store head-1 positions only; the
per-head sets are always derived, never stored.

All public position indices are 1-based (insertion position 0 = before the
first bit); the conversion to 0-based numpy indexing happens once, here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .bits import BitArray, as_bits
from .errors import BudgetExceeded, InadmissiblePattern


@dataclass(frozen=True)
class BitTrack:
    """An immutable stored binary sequence."""

    bits: BitArray

    def __post_init__(self):
        object.__setattr__(self, "bits", as_bits(self.bits))
        self.bits.setflags(write=False)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitTrack) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())


@dataclass(frozen=True)
class HeadGeometry:
    """Head count and inter-head distances t_1..t_{d-1} (all >= 1)."""

    distances: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(int(t) for t in self.distances))
        if any(t < 1 for t in self.distances):
            raise ValueError("head distances must be positive")

    @property
    def d(self) -> int:
        return len(self.distances) + 1

    @property
    def offsets(self) -> tuple[int, ...]:
        """Cumulative head offsets: head i sees head-1 positions shifted by offsets[i-1]."""
        out = [0]
        for t in self.distances:
            out.append(out[-1] + t)
        return tuple(out)

    @property
    def t_max(self) -> int:
        return max(self.distances) if self.distances else 0

    @property
    def span(self) -> int:
        """Distance between first and last head."""
        return sum(self.distances)

    @classmethod
    def equispaced(cls, d: int, t: int) -> "HeadGeometry":
        if d < 1:
            raise ValueError("need at least one head")
        return cls(tuple([t] * (d - 1)))


def _on_track(positions: tuple[int, ...], first: int, n: int, geometry: HeadGeometry) -> bool:
    """Every head's copy of the sorted head-1 ``positions`` lies in [first, n]."""
    return not positions or (positions[0] >= first and positions[-1] + geometry.span <= n)


@dataclass(frozen=True)
class DeletionPattern:
    """Deletion positions in head 1; other heads are shifted copies."""

    delta1: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(sorted(int(p) for p in self.delta1))
        if len(set(pos)) != len(pos):
            raise ValueError("duplicate deletion positions")
        object.__setattr__(self, "delta1", pos)

    def admissible(self, n: int, geometry: HeadGeometry) -> bool:
        return _on_track(self.delta1, 1, n, geometry)


@dataclass(frozen=True)
class EditPattern:
    """Deletions plus insertions, head-1 positions; inserted bits may differ per head.

    ``gamma1`` positions are in [0, n]: bit j of head i's ``inserted_bits`` row is
    placed after track position gamma1[j] + offset(i) (0 = before the first bit).
    """

    delta1: tuple[int, ...]
    gamma1: tuple[int, ...]
    inserted_bits: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        dels = tuple(sorted(int(p) for p in self.delta1))
        ins = tuple(sorted(int(p) for p in self.gamma1))
        if len(set(dels)) != len(dels) or len(set(ins)) != len(ins):
            raise ValueError("duplicate error positions")
        bits = tuple(tuple(int(b) for b in row) for row in self.inserted_bits)
        if any(len(row) != len(ins) for row in bits):
            raise ValueError("each head needs one inserted bit per insertion position")
        if any(b not in (0, 1) for row in bits for b in row):
            raise ValueError("inserted bits must be 0 or 1")
        object.__setattr__(self, "delta1", dels)
        object.__setattr__(self, "gamma1", ins)
        object.__setattr__(self, "inserted_bits", bits)

    def admissible(self, n: int, geometry: HeadGeometry) -> bool:
        return (
            (not self.gamma1 or len(self.inserted_bits) == geometry.d)
            and _on_track(self.delta1, 1, n, geometry)
            and _on_track(self.gamma1, 0, n, geometry)
        )


@dataclass(frozen=True)
class ReadMatrix:
    """The d per-head reads stacked as rows (equal lengths)."""

    rows: np.ndarray
    kind: str = "deletion"  # "deletion" | "edit"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError("read matrix must be 2-D")
        object.__setattr__(self, "rows", rows)
        self.rows.setflags(write=False)

    @property
    def d(self) -> int:
        return self.rows.shape[0]

    @property
    def cols(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReadMatrix)
            and self.kind == other.kind
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.rows.shape, self.rows.tobytes()))


def _read_rows(track: BitTrack, geometry: HeadGeometry, delta1, gamma1=(), inserted_bits=()) -> np.ndarray:
    """Each head drops its copy of ``delta1``, then puts bit j of its
    ``inserted_bits`` row after its copy of track position ``gamma1[j]``."""
    dels = np.array(delta1, dtype=np.int64)
    ins = np.array(gamma1, dtype=np.int64)
    # kept bits at or before track position g: g minus the deletions <= g, in every head
    at = ins - np.searchsorted(dels, ins, side="right")
    rows = []
    for head, off in enumerate(geometry.offsets):
        row = np.delete(track.bits, dels + (off - 1))
        if len(ins):
            row = np.insert(row, at + off, inserted_bits[head])
        rows.append(row)
    return np.stack(rows)


def apply_deletions(track: BitTrack, pattern: DeletionPattern, geometry: HeadGeometry) -> ReadMatrix:
    """Read matrix after correlated deletions (row i = track minus delta1 + offset_i)."""
    n = len(track)
    if not pattern.admissible(n, geometry):
        raise InadmissiblePattern(f"deletions {pattern.delta1} with span {geometry.span} leave [1,{n}]")
    return ReadMatrix(_read_rows(track, geometry, pattern.delta1), kind="deletion")


def apply_edits(track: BitTrack, pattern: EditPattern, geometry: HeadGeometry) -> ReadMatrix:
    """Read matrix after correlated deletions and insertions.

    Insertions are anchored to original track positions: a bit at gamma stays
    between track positions gamma and gamma+1 even when neighbours are deleted.
    """
    n = len(track)
    if not pattern.admissible(n, geometry):
        raise InadmissiblePattern(f"edit pattern leaves [0,{n}] in some head or lacks one bit row per head")
    rows = _read_rows(track, geometry, pattern.delta1, pattern.gamma1, pattern.inserted_bits)
    return ReadMatrix(rows, kind="edit")


def admissible_deletion_positions(n: int, geometry: HeadGeometry) -> range:
    """Head-1 positions whose copies stay on the track in every head."""
    return range(1, n - geometry.span + 1)


def enumerate_deletion_ball(
    track: BitTrack, k: int, geometry: HeadGeometry, budget: int = 2_000_000
) -> set[ReadMatrix]:
    """All distinct read matrices over admissible k-deletion patterns.

    Distinct patterns can collide on the same matrix; the result set is
    deduplicated by content. Raises BudgetExceeded when the pattern count
    (before dedup) exceeds ``budget``.
    """
    n = len(track)
    positions = admissible_deletion_positions(n, geometry)
    total = comb(len(positions), k)
    if total > budget:
        raise BudgetExceeded(f"{total} patterns exceed budget {budget}")
    out: set[ReadMatrix] = set()
    for combo in combinations(positions, k):
        out.add(apply_deletions(track, DeletionPattern(combo), geometry))
    return out


def sample_edit_pattern(
    rng, n: int, k: int, geometry: HeadGeometry, r: int | None = None, s: int | None = None
) -> EditPattern:
    """Random admissible pattern; (r, s) uniform over r + s <= k unless given.

    With s = 0 nothing is drawn past the deletions, so ``r=k, s=0`` is the
    k-deletion sampler.
    """
    if r is None or s is None:
        pairs = [(a, b) for a in range(k + 1) for b in range(k + 1) if a + b <= k]
        r, s = rng.choice(pairs)
    del_positions = admissible_deletion_positions(n, geometry)
    ins_positions = range(0, n - geometry.span + 1)
    if len(del_positions) < r or len(ins_positions) < s:
        raise InadmissiblePattern("track too short for requested edit load")
    delta1 = tuple(rng.sample(del_positions, r))
    gamma1 = tuple(rng.sample(ins_positions, s))
    bits = tuple(tuple(rng.randrange(2) for _ in range(s)) for _ in range(geometry.d))
    return EditPattern(delta1, gamma1, bits)
