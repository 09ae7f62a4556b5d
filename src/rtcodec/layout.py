"""Codeword layout shared by the deletion and edit codecs.

A codeword is (capped track ‖ first-layer redundancy R1 ‖ second-layer
redundancy R2). R1 protects the per-block hash vector of the capped track:
each block hash is packed into a group of g field symbols, and the outer code
(odd/even pair parity or Reed-Solomon) runs independently per lane across
groups, so erasing a block erases one symbol in every lane. The field is
GF(2^8) unless a Reed-Solomon codeword (blocks plus parity) is too long for
it, then GF(2^16). R2 = Rep_{k+1}(R1), the (k+1)-fold repetition of R1, and
bootstraps the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitArray, as_bits, bits_from_int
from .algebra import rs_decode_lanes, rs_parity_lanes
from .errors import ParamViolation, ParityMismatch, TooManyErasures
from .hashing import block_bounds
from .params import CodeParams
from .trace import Trace


@dataclass(frozen=True)
class Layout:
    """Derived segment geometry of a codeword."""

    n: int
    k: int
    f_len: int
    block_len: int
    blocks: tuple[tuple[int, int], ...]
    hash_bits: int  # padded per-block hash width H
    group_symbols: int  # g = ceil(H / w)
    symbol_bits: int  # field width w, derived by build_layout
    parity_groups: int

    @property
    def n1(self) -> int:
        return self.parity_groups * self.group_symbols * self.symbol_bits

    @property
    def n2(self) -> int:
        return (self.k + 1) * self.n1

    @property
    def total(self) -> int:
        return self.f_len + self.n1 + self.n2

    def to_dict(self) -> dict:
        return {
            "N": self.total,
            "f_len": self.f_len,
            "n1": self.n1,
            "n2": self.n2,
            "block_len": self.block_len,
            "block_count": len(self.blocks),
            "hash_bits": self.hash_bits,
            "group_symbols": self.group_symbols,
            "parity_groups": self.parity_groups,
        }


def build_layout(params: CodeParams) -> Layout:
    """Segment geometry of the codeword for ``params`` (either codec)."""
    f_len = params.n + params.k + 1
    blocks = tuple(block_bounds(f_len, params.block_len))
    w = 8
    if params.regime == "direct" and params.kind == "edit":
        parity_groups = 0
        H = g = 0
    else:
        H = max(params.hasher().hash_len(e - s + 1, params.k) for s, e in blocks)
        parity_groups = params.rs_parity_blocks if params.regime == "rs" else 2
        if params.regime == "rs":
            w = _rs_width(len(blocks) + parity_groups)
        g = (H + w - 1) // w
    return Layout(params.n, params.k, f_len, params.block_len, blocks, H, g, w, parity_groups)


def _rs_width(symbols: int) -> int:
    """Narrowest field width, 8 or 16, whose RS codes (at most 2^w - 1 symbols) fit ``symbols``."""
    for w in (8, 16):
        if symbols < 1 << w:
            return w
    raise ParamViolation(f"{symbols} Reed-Solomon symbols exceed GF(2^16)")


def _symbol_bits(symbols: list[int], w: int) -> BitArray:
    """Concatenated MSB-first w-bit expansions of the symbols."""
    if not symbols:
        return as_bits([])
    if min(symbols) < 0 or max(symbols) >= 1 << w:
        for s in symbols:
            bits_from_int(s, w)  # raises the ValueError naming the first misfit
    values = np.array(symbols, dtype=np.int64)
    return ((values[:, None] >> np.arange(w - 1, -1, -1)) & 1).astype(np.uint8).ravel()


def _symbol_values(bits: np.ndarray, w: int) -> np.ndarray:
    """Integer value of each MSB-first w-bit row along the last axis of ``bits``."""
    return (bits.astype(np.int64) << np.arange(w - 1, -1, -1)).sum(axis=-1)


def pack_group(hash_bits: BitArray, layout: Layout) -> list[int]:
    """Zero-pad a block hash to H bits and chop into g w-bit symbols, MSB-first."""
    if len(hash_bits) > layout.hash_bits:
        raise ValueError(f"{len(hash_bits)}-bit hash exceeds the padded width {layout.hash_bits}")
    w = layout.symbol_bits
    buf = np.zeros(layout.group_symbols * w, dtype=np.uint8)
    buf[: len(hash_bits)] = hash_bits
    return _symbol_values(buf.reshape(-1, w), w).tolist()


def unpack_group(symbols: list[int], layout: Layout, true_len: int) -> BitArray:
    return _symbol_bits(symbols, layout.symbol_bits)[:true_len]


def groups_to_bits(groups: list[list[int]], layout: Layout) -> BitArray:
    return _symbol_bits([s for grp in groups for s in grp], layout.symbol_bits)


def bits_to_groups(bits: BitArray, layout: Layout, n_groups: int) -> list[list[int]]:
    w = layout.symbol_bits
    g = layout.group_symbols
    if len(bits) < n_groups * g * w:
        raise ValueError(f"{len(bits)} bits cannot fill {n_groups} groups of {g} {w}-bit symbols")
    return _symbol_values(np.asarray(bits[: n_groups * g * w]).reshape(n_groups, g, w), w).tolist()


def _lanes(block_groups: list[list[int]], layout: Layout) -> np.ndarray:
    """Block groups as an int array of shape (blocks, g): row i is block i, column j lane j."""
    return np.array(block_groups, dtype=np.int64).reshape(len(block_groups), layout.group_symbols)


def _pair_parity(lanes: np.ndarray) -> np.ndarray:
    """XOR of the even rows and XOR of the odd rows of ``lanes``: shape (2, g)."""
    return np.stack([np.bitwise_xor.reduce(lanes[0::2], axis=0), np.bitwise_xor.reduce(lanes[1::2], axis=0)])


def parity_groups_pair(block_groups: list[list[int]], layout: Layout) -> list[list[int]]:
    """Lane-wise odd/even parity over block groups: two parity groups."""
    return _pair_parity(_lanes(block_groups, layout)).tolist()


def restore_pair(
    block_groups: list[list[int] | None], parity: list[list[int]], layout: Layout
) -> list[list[int]]:
    """Fill None block groups (at most two, consecutive) lane by lane.

    Blocks alternate between the two parity classes, so each class loses at
    most one block: its groups are the class's parity XOR the class's other
    groups.
    """
    erased = [i for i, grp in enumerate(block_groups) if grp is None]
    if len(erased) > 2 or (len(erased) == 2 and erased[1] - erased[0] != 1):
        raise TooManyErasures(f"pair parity cannot restore blocks {erased}")
    zero = [0] * layout.group_symbols
    lanes = _lanes([zero if grp is None else grp for grp in block_groups], layout)
    residue = np.array(parity, dtype=np.int64).reshape(2, layout.group_symbols) ^ _pair_parity(lanes)
    if not erased and residue.any():
        raise ParityMismatch("pair parity mismatch with no erasures")
    for i in erased:
        lanes[i] = residue[i % 2]
    return lanes.tolist()


def parity_groups_rs(block_groups: list[list[int]], layout: Layout) -> list[list[int]]:
    """Lane-wise systematic RS parity: parity_groups groups."""
    return rs_parity_lanes(_lanes(block_groups, layout), layout.parity_groups, layout.symbol_bits).tolist()


def restore_rs(
    block_groups: list[list[int] | None],
    parity: list[list[int]],
    layout: Layout,
    max_errors: int = 0,
    trace: Trace | None = None,
) -> tuple[list[list[int]], list[int]]:
    """Erasure (+ optionally error) decode of all lanes at once (``rs_decode_lanes``).

    Returns (restored block groups, sorted block indices where a substitution
    was corrected). Raises TooManyErasures past the parity, DecodeFailure if
    any lane fails and ParityMismatch if the corrected block count exceeds
    ``max_errors``. ``trace`` counts the lanes that needed the scalar decoder.
    """
    r, g = layout.parity_groups, layout.group_symbols
    erased = [i for i, grp in enumerate(block_groups) if grp is None]
    blocks = _lanes([[0] * g if grp is None else grp for grp in block_groups], layout)
    words = np.concatenate([blocks, np.array(parity[:r], dtype=np.int64).reshape(r, g)])
    fixed = rs_decode_lanes(words, erased, r, layout.symbol_bits, trace)[: len(blocks)]
    changed = (fixed != blocks).any(axis=1)
    changed[erased] = False
    corrected = np.flatnonzero(changed).tolist()
    if len(corrected) > max_errors:
        raise ParityMismatch(f"{len(corrected)} substituted blocks exceed budget {max_errors}")
    return fixed.tolist(), corrected
