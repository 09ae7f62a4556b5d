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
re-verify against every read row within the global edit budget. Every
admissible choice is tried, and the accepted ones must decode to the same
track.

The codeword layers, the block restore and that final check are shared with
the deletion codec (``layered``); this module adds head reduction and the
choice enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .bits import BitArray
from .editsync import build_edit_report, head_reduction_recover, recover_outside_bits
from .errors import DecodeFailure, ReductionStuck, RtCodecError
from .layered import Bootstrap, blocks_touched, bootstrap, encode_layered, finish, restore_blocks
from .layout import build_layout
from .model import BitTrack, ReadMatrix
from .params import CodeParams
from .trace import Trace


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


edit_layout = build_layout


def encode_edits(track: BitTrack, params: CodeParams) -> BitArray:
    """k<d: the capped track alone; otherwise capped track + hash parity layers."""
    return encode_layered(track, params, "edit")


def decode_edits(E: ReadMatrix, params: CodeParams, trace: Trace | None = None) -> BitArray:
    """Recover the stored track from reads with at most k mixed edits per head.

    ``trace`` receives the stages bootstrap, sync, intervals, then finish
    (k < d) or choices, one ``shift_vote`` event per interval whose net shift
    was voted, one ``interval`` event per interval (after the
    ``reduction_step`` events of its head reduction) and one ``choice`` event
    per distrust choice tried (the README's ``decode --report`` section lists
    their fields).
    """
    if trace is None:
        trace = Trace()
    with trace.stage("bootstrap"):
        boot = bootstrap(E, params, "edit", trace)
    f_len = boot.layout.f_len
    with trace.stage("sync"):
        try:
            report = build_edit_report(E, params, total_shift=boot.sigma, trace=trace)
        except RtCodecError as e:
            raise DecodeFailure("sync", str(e)) from e
        est0 = recover_outside_bits(E, report, f_len)

    outcomes: list[IntervalOutcome] = []
    with trace.stage("intervals"):
        for (b1, b2), (src_start, src_end), s_j in zip(report.intervals, report.source_intervals, report.shifts):
            touches = src_start <= f_len
            estimate, heads_left = None, None
            if touches:
                segs = [E.rows[w][b1 - 1 : b2] for w in range(params.d)]
                try:
                    estimate, heads_left = head_reduction_recover(segs, params, trace)
                    if len(estimate) != src_end - src_start + 1:
                        estimate, heads_left = None, None
                except ReductionStuck:
                    estimate, heads_left = None, None
            oc = IntervalOutcome((b1, b2), (src_start, src_end), s_j, estimate, heads_left, touches)
            outcomes.append(oc)
            trace.event("interval", **vars(oc))

    if params.regime == "direct":
        with trace.stage("finish"):
            return _decode_direct(est0, outcomes, boot, params, E)
    with trace.stage("choices"):
        return _decode_with_choices(est0, outcomes, boot, params, E, trace)


def _splice(est: BitArray, outcome: IntervalOutcome, f_len: int) -> None:
    lo, hi = outcome.source_span
    lo2, hi2 = max(lo, 1), min(hi, f_len)
    if lo2 > hi2 or outcome.estimate is None:
        return
    est[lo2 - 1 : hi2] = outcome.estimate[lo2 - lo : hi2 - lo + 1]


def _decode_direct(est0, outcomes, boot: Bootstrap, params, E) -> BitArray:
    est = est0.copy()
    for oc in outcomes:
        if not oc.touches_track:
            continue
        if oc.estimate is None:
            raise DecodeFailure("interval", "head reduction stuck with k < d")
        _splice(est, oc, boot.layout.f_len)
    return finish(est, boot.tail, E, params)


def _decode_with_choices(est0, outcomes, boot: Bootstrap, params, E, trace: Trace) -> BitArray:
    """Try every admissible distrust choice; the accepted ones must agree."""
    candidates = [j for j, oc in enumerate(outcomes) if oc.touches_track]
    forced = [j for j in candidates if outcomes[j].estimate is None]
    optional = [j for j in candidates if j not in forced]
    # only one interval can defeat head reduction below k = 2d
    max_extra = 1 if params.regime == "pair" else len(optional)
    sizes = range(min(max_extra, len(optional)) + 1)
    accepted: list[BitArray] = []
    last_error = "no choice satisfied the budget"
    for extra in chain.from_iterable(combinations(optional, size) for size in sizes):
        chosen = tuple(sorted(set(forced) | set(extra)))
        budget = sum(oc.budget_term(params.d, j in chosen) for j, oc in enumerate(outcomes))
        try:
            out, substituted = _try_choice(chosen, budget, est0, outcomes, boot, params, E, trace)
        except RtCodecError as e:
            last_error = str(e)
            stage = getattr(e, "stage", type(e).__name__)
            trace.event("choice", chosen=chosen, budget=budget, substituted=(), ok=False, stage=stage)
            continue
        accepted.append(out)
        trace.event("choice", chosen=chosen, budget=budget, substituted=tuple(substituted), ok=True, stage=None)
    if not accepted:
        raise DecodeFailure("choices", last_error)
    if any(not np.array_equal(other, accepted[0]) for other in accepted[1:]):
        raise DecodeFailure("choices", "two distrust choices decode to different tracks")
    return accepted[0]


def _try_choice(chosen, budget, est0, outcomes, boot: Bootstrap, params, E, trace: Trace) -> tuple[BitArray, list[int]]:
    """Erase the blocks of the distrusted intervals, splice the trusted estimates."""
    d, k = params.d, params.k
    layout = boot.layout
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
        est, sorted(erased), boot.parity, layout, params, boot.row1, boot.sigma, max_subs, trace
    )
    return finish(est, boot.tail, E, params), substituted
