"""The layered construction shared by the deletion and edit codecs.

A codeword is the period-capped track, then R1 (the outer parity of the
per-block hashes: odd/even pair parity for d <= k <= 2d-1, Reed-Solomon for
k >= 2d), then R2 = Rep_{k+1}(R1), the (k+1)-fold repetition of R1. Both
codecs decode it the same way around their own read synchronization:

1. ``bootstrap``: check the parameters and the read shape, recover R1 from
   R2, and split it into parity groups;
2. the codec fills in what synchronization recovers and names the blocks it
   could not trust;
3. ``restore_blocks``: treat those blocks' hashes as erasures (plus, in the
   edit codec, a budget of unknown substitutions), restore them from the outer
   code, and re-pin each affected block from its hash;
4. ``finish``: invert the period cap and check the result against every read.

With no outer layer (the edit codec's k < d regime), the codeword is the
capped track alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import rep_decode, rep_encode
from .bits import UNKNOWN, BitArray, as_bits, edit_distance_at_most
from .errors import DecodeFailure, ParamViolation, RtCodecError
from .layout import (
    Layout,
    bits_to_groups,
    build_layout,
    groups_to_bits,
    pack_group,
    parity_groups_pair,
    parity_groups_rs,
    restore_pair,
    restore_rs,
    unpack_group,
)
from .model import BitTrack, ReadMatrix
from .params import CodeParams
from .periodicity import cap_periods, uncap_periods
from .trace import Trace


def check_params(params: CodeParams, kind: str) -> None:
    """Reject parameters the ``kind`` codec cannot run."""
    if params.kind != kind:
        raise ParamViolation(f"{kind} codec needs {kind}-kind params")
    if params.d < 2:
        raise ParamViolation(f"{kind} codec needs at least two heads")
    if kind == "deletion" and params.regime == "direct" and params.mode == "paper-exact":
        # k < d is prior-work territory; the pair shape still runs in relaxed
        # mode so toy codes can be tested exhaustively
        raise ParamViolation("k < d has no paper-exact deletion construction here")


def encode_layered(track: BitTrack, params: CodeParams, kind: str) -> BitArray:
    """Codeword = capped track ‖ outer parity of block hashes ‖ Rep_{k+1}(parity)."""
    check_params(params, kind)
    c = track.bits if isinstance(track, BitTrack) else as_bits(track)
    if len(c) != params.n:
        raise ParamViolation(f"track length {len(c)} != n = {params.n}")
    layout = build_layout(params)
    f = cap_periods(c, params.k)
    if not layout.n1:
        return f
    hasher = params.hasher()
    block_groups = [
        pack_group(hasher.hash(f[s - 1 : e], params.k), layout) for s, e in layout.blocks
    ]
    if params.regime == "pair":
        parity = parity_groups_pair(block_groups, layout)
    else:
        parity = parity_groups_rs(block_groups, layout)
    r1 = groups_to_bits(parity, layout)
    return np.concatenate([f, r1, rep_encode(r1, params.k + 1)])


@dataclass(frozen=True)
class Bootstrap:
    """What a decode knows before synchronization."""

    layout: Layout
    row1: BitArray  # the head-1 read
    sigma: int  # its length minus the codeword length
    parity: list[list[int]]  # R1 as parity groups
    tail: BitArray  # R1 ‖ R2, the codeword after the capped track


def bootstrap(reads: ReadMatrix, params: CodeParams, kind: str, trace: Trace | None = None) -> Bootstrap:
    """Check the parameters, row count and read length, then recover R1 from R2.

    ``trace`` counts the path ``rep_decode`` took.
    """
    check_params(params, kind)
    if reads.d != params.d:
        raise DecodeFailure("input", f"{reads.d} read rows for a {params.d}-head code")
    layout = build_layout(params)
    row1 = reads.rows[0]
    sigma = len(row1) - layout.total
    max_gain = params.k if kind == "edit" else 0  # deletions only shorten a read
    if not -params.k <= sigma <= max_gain:
        raise DecodeFailure("input", f"read length {len(row1)} incompatible with codeword length {layout.total}")
    if not layout.n1:
        return Bootstrap(layout, row1, sigma, [], as_bits([]))
    try:
        r1 = rep_decode(row1[layout.total - layout.n2 :], params.k + 1, msg_len=layout.n1, trace=trace)
    except RtCodecError as e:
        raise DecodeFailure("rep", str(e)) from e
    # R1's own read must agree with R2's copy, as the k edits allow
    window = row1[layout.f_len : min(layout.f_len + layout.n1 + sigma, len(row1))]
    if edit_distance_at_most(window, r1, params.k) is None:
        raise DecodeFailure("rlayer-hash", "the R1 read is not within k edits of R2's copy")
    parity = bits_to_groups(r1, layout, layout.parity_groups)
    return Bootstrap(layout, row1, sigma, parity, np.concatenate([r1, rep_encode(r1, params.k + 1)]))


def blocks_touched(layout: Layout, lo: int, hi: int) -> list[int]:
    """0-based indices of blocks whose span intersects source range [lo, hi]."""
    return [i for i, (s, e) in enumerate(layout.blocks) if s <= hi and e >= lo]


def restore_blocks(
    est: BitArray,
    erased: list[int],
    parity: list[list[int]],
    layout: Layout,
    params: CodeParams,
    row1: BitArray,
    sigma: int,
    max_subs: int,
    trace: Trace | None = None,
) -> tuple[BitArray, list[int]]:
    """Restore the hashes of the sorted ``erased`` blocks and re-pin those blocks.

    The other blocks of ``est`` are hashed as they stand. Pair parity restores
    one block or two adjacent ones; Reed-Solomon restores up to its parity
    count and also corrects up to ``max_subs`` blocks whose estimate was wrong
    (as far as the parity left over reaches). Each erased or substituted block
    is then recovered from its hash and its window of the head-1 read.
    Returns the new estimate and the substituted block indices. ``trace``
    counts the RS lanes that needed the scalar decoder (``rs.scalar_lanes``).
    """
    hasher = params.hasher()
    block_groups: list[list[int] | None] = []
    for i, (s, e) in enumerate(layout.blocks):
        if i in erased:
            block_groups.append(None)
            continue
        chunk = est[s - 1 : e]
        if (chunk == UNKNOWN).any():
            raise DecodeFailure("erasure", f"block {i + 1} incomplete outside the erased set")
        block_groups.append(pack_group(hasher.hash(chunk, params.k), layout))
    try:
        if params.regime == "pair":
            restored, substituted = restore_pair(block_groups, parity, layout), []
        else:
            max_subs = max(0, min(max_subs, (layout.parity_groups - len(erased)) // 2))
            restored, substituted = restore_rs(block_groups, parity, layout, max_subs, trace)
    except RtCodecError as e:
        raise DecodeFailure("erasure", str(e)) from e
    out = est.copy()
    for i in sorted(set(erased) | set(substituted)):
        s, e = layout.blocks[i]
        size = e - s + 1
        h = unpack_group(restored[i], layout, hasher.hash_len(size, params.k))
        window = row1[s - 1 : min(max(e + sigma, s - 1), len(row1))]
        try:
            out[s - 1 : e] = hasher.recover(window, h, size, params.k)
        except RtCodecError as err:
            raise DecodeFailure("hash-recovery", str(err)) from err
    return out, substituted


def finish(est: BitArray, tail: BitArray, reads: ReadMatrix, params: CodeParams) -> BitArray:
    """Invert the period cap; the codeword it implies must explain every read."""
    if (est == UNKNOWN).any():
        raise DecodeFailure("assemble", "unrecovered positions remain")
    try:
        out = uncap_periods(est, params.k, params.n)
    except RtCodecError as e:
        raise DecodeFailure("invert", str(e)) from e
    if not np.array_equal(cap_periods(out, params.k), est):
        raise DecodeFailure("verify", "estimate is not a valid capped track")
    codeword = np.concatenate([est, tail])
    for row in reads.rows:
        if edit_distance_at_most(codeword, row, params.k) is None:
            raise DecodeFailure("verify", "decoded codeword does not reproduce the reads")
    return out
