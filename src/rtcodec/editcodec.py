"""End-to-end codecs for mixed deletion/insertion errors.

Three regimes:

* k < d: the capped track alone is decodable; every interval holds fewer
  errors than heads, so head reduction repairs all of them.
* d <= k <= 2d-1: deletion-codec shape (pair parity over block hashes) with
  the edit block length; at most one interval can defeat head reduction.
* k >= 2d: Reed-Solomon parity over block hashes.

Because an interval can fail silently when it holds >= d errors, the decoder
enumerates which intervals to distrust: distrusted intervals erase their
blocks, trusted ones contribute spliced estimates, undetectable clusters are
absorbed as block substitutions, and a per-choice error budget derived from
the reduction outcomes rejects impossible choices. Accepted choices must also
re-verify against every read row within the global edit budget.

The codeword layers, the block restore and that final check are shared with
the deletion codec (``layered``); this module adds head reduction and the
choice enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .bits import BitArray
from .editsync import build_edit_report, head_reduction_recover, recover_outside_bits
from .errors import DecodeFailure, ReductionStuck, RtCodecError
from .layered import Bootstrap, blocks_touched, bootstrap, encode_layered, finish, restore_blocks
from .layout import build_layout
from .model import BitTrack, ReadMatrix
from .params import CodeParams


@dataclass
class IntervalOutcome:
    """Per-interval reduction result feeding the choice enumeration."""

    read_span: tuple[int, int]
    source_span: tuple[int, int]
    shift: int
    estimate: BitArray | None  # None when the reduction got stuck
    heads_left: int | None
    touches_track: bool

    def budget_term(self, d: int, selected: bool) -> int:
        """Minimum error count this interval must hold under the choice."""
        if self.heads_left is None:
            return d if selected else 0
        if self.heads_left == d and self.estimate is not None and not selected:
            return 0  # clean interval
        if self.heads_left == 1 and abs(self.shift) % 2 != (d + 1) % 2:
            return d
        return d + self.heads_left if selected else max(d - self.heads_left, 0)


@dataclass
class EditDecodeInfo:
    """Diagnostics for tests: chosen intervals, budgets, outcomes."""

    outcomes: list[IntervalOutcome] = field(default_factory=list)
    chosen: tuple[int, ...] = ()
    budget: int = 0
    substituted_blocks: tuple[int, ...] = ()
    accepted_choices: list[tuple[int, ...]] = field(default_factory=list)


edit_layout = build_layout


def encode_edits(track: BitTrack, params: CodeParams) -> BitArray:
    """k<d: the capped track alone; otherwise capped track + hash parity layers."""
    return encode_layered(track, params, "edit")


def decode_edits(E: ReadMatrix, params: CodeParams, return_info: bool = False):
    """Recover the stored track from reads with at most k mixed edits per head."""
    boot = bootstrap(E, params, "edit")
    f_len = boot.layout.f_len
    try:
        report = build_edit_report(E, params, total_shift=boot.sigma)
    except RtCodecError as e:
        raise DecodeFailure("sync", str(e)) from e
    est0 = recover_outside_bits(E, report, f_len)

    outcomes: list[IntervalOutcome] = []
    for j, ((b1, b2), s_j) in enumerate(zip(report.intervals, report.shifts)):
        src_start = report.source_start(j)
        src_end = src_start + (b2 - b1 + 1 - s_j) - 1
        touches = src_start <= f_len
        estimate, heads_left = None, None
        if touches:
            segs = [E.rows[w][b1 - 1 : b2] for w in range(params.d)]
            try:
                estimate, heads_left = head_reduction_recover(segs, params)
                if len(estimate) != src_end - src_start + 1:
                    estimate, heads_left = None, None
            except ReductionStuck:
                estimate, heads_left = None, None
        outcomes.append(
            IntervalOutcome((b1, b2), (src_start, src_end), s_j, estimate, heads_left, touches)
        )

    if params.regime == "direct":
        return _decode_direct(est0, outcomes, boot, params, E, return_info)
    return _decode_with_choices(est0, outcomes, boot, params, E, return_info)


def _splice(est: BitArray, outcome: IntervalOutcome, f_len: int) -> None:
    lo, hi = outcome.source_span
    lo2, hi2 = max(lo, 1), min(hi, f_len)
    if lo2 > hi2 or outcome.estimate is None:
        return
    est[lo2 - 1 : hi2] = outcome.estimate[lo2 - lo : hi2 - lo + 1]


def _decode_direct(est0, outcomes, boot: Bootstrap, params, E, return_info):
    est = est0.copy()
    for oc in outcomes:
        if not oc.touches_track:
            continue
        if oc.estimate is None:
            raise DecodeFailure("interval", "head reduction stuck with k < d")
        _splice(est, oc, boot.layout.f_len)
    out = finish(est, boot.tail, E, params)
    if return_info:
        return out, EditDecodeInfo(outcomes=outcomes, accepted_choices=[()])
    return out


def _decode_with_choices(est0, outcomes, boot: Bootstrap, params, E, return_info):
    candidates = [j for j, oc in enumerate(outcomes) if oc.touches_track]
    forced = [j for j in candidates if outcomes[j].estimate is None]
    optional = [j for j in candidates if j not in forced]
    # only one interval can defeat head reduction below k = 2d
    max_extra = 1 if params.regime == "pair" else len(optional)
    choices: list[tuple[int, ...]] = []
    for size in range(0, min(max_extra, len(optional)) + 1):
        for extra in combinations(optional, size):
            choices.append(tuple(sorted(set(forced) | set(extra))))
    accepted: list[tuple[tuple[int, ...], BitArray, EditDecodeInfo]] = []
    last_error = "no choice satisfied the budget"
    for chosen in choices:
        try:
            out, info = _try_choice(chosen, est0, outcomes, boot, params, E)
        except RtCodecError as e:
            last_error = str(e)
            continue
        accepted.append((chosen, out, info))
        if not return_info:
            break
    if not accepted:
        raise DecodeFailure("choices", last_error)
    chosen, out, info = accepted[0]
    for _, other, _ in accepted[1:]:
        if not np.array_equal(other, out):
            raise DecodeFailure("choices", "two distrust choices decode to different tracks")
    info.outcomes = outcomes
    info.accepted_choices = [c for c, _, _ in accepted]
    if return_info:
        return out, info
    return out


def _try_choice(chosen, est0, outcomes, boot: Bootstrap, params, E):
    """Erase the blocks of the distrusted intervals, splice the trusted estimates."""
    d, k = params.d, params.k
    layout = boot.layout
    budget = sum(oc.budget_term(d, j in chosen) for j, oc in enumerate(outcomes))
    if budget > k:
        raise DecodeFailure("budget", f"choice needs {budget} errors, only {k} allowed")
    est = est0.copy()
    erased: set[int] = set()
    for j, oc in enumerate(outcomes):
        if not oc.touches_track:
            continue
        if j in chosen:
            lo, hi = oc.source_span
            erased.update(blocks_touched(layout, max(lo, 1), min(hi, layout.f_len)))
        else:
            _splice(est, oc, layout.f_len)
    # the errors the choice leaves unaccounted for can substitute whole blocks
    max_subs = 2 * ((k - budget) // (2 * d))
    est, substituted = restore_blocks(
        est, sorted(erased), boot.parity, layout, params, boot.row1, boot.sigma, max_subs
    )
    out = finish(est, boot.tail, E, params)
    return out, EditDecodeInfo(chosen=chosen, budget=budget, substituted_blocks=tuple(substituted))
