"""End-to-end deletion-correcting codecs.

The layered construction (``layered``) runs in two regimes:

* "pair" (d <= k <= 2d-1): at most one interval can hold d or more deletions,
  it touches at most two adjacent blocks, and the odd/even pair parity
  restores those two hashes.
* "rs" (k >= 2d): up to 2*(k//d) block hashes can be lost at known positions;
  systematic Reed-Solomon parity restores them.

This module adds what is particular to deletions: per-interval deletion
counts, and recovery of intervals with fewer than d deletions directly from
the d reads. Blocks under the other intervals are restored from their hashes.
"""

from __future__ import annotations

from .bits import BitArray
from .delsync import align_and_recover_clean_bits, build_report, recover_interval_multihead
from .errors import DecodeFailure, RtCodecError
from .layered import blocks_touched, bootstrap, encode_layered, finish, restore_blocks
from .layout import build_layout
from .model import BitTrack, ReadMatrix
from .params import CodeParams
from .trace import Trace

deletion_layout = build_layout


def encode_deletions(track: BitTrack, params: CodeParams) -> BitArray:
    """Codeword = capped track ‖ outer parity of block hashes ‖ Rep(hash of parity)."""
    return encode_layered(track, params, "deletion")


def decode_deletions(D: ReadMatrix, params: CodeParams, trace: Trace | None = None) -> BitArray:
    """Recover the stored track from a read matrix with at most k deletions per head.

    ``trace`` receives the stages bootstrap, sync, intervals, restore and
    finish, one ``count_vote`` event per interval counted by shift probes, one
    ``interval`` event per interval and one ``heavy`` event (the README's
    ``decode --report`` section lists their fields).
    """
    if trace is None:
        trace = Trace()
    with trace.stage("bootstrap"):
        boot = bootstrap(D, params, "deletion", trace)
    layout = boot.layout
    with trace.stage("sync"):
        try:
            report = build_report(D, params, total_shift=boot.sigma, trace=trace)
        except RtCodecError as e:
            raise DecodeFailure("sync", str(e)) from e
        est = align_and_recover_clean_bits(D, report, layout.f_len)

    heavy: set[int] = set()
    with trace.stage("intervals"):
        for (rs_, re_), (s, e), shift in zip(report.intervals, report.source_intervals, report.shifts):
            cnt = -shift
            spans = {"read_span": (rs_, re_), "source_span": (s, e), "count": cnt}
            if s > layout.f_len:
                trace.event("interval", **spans, outcome="redundancy")
                continue
            crosses = e > layout.f_len
            upto = min(e, layout.f_len)
            rec = None
            if cnt < params.d:
                segments = [D.rows[w][rs_ - 1 : re_] for w in range(params.d)]
                # intervals reaching into R1/R2 have those candidate bits pinned
                pinned = {
                    p - s + 1: int(boot.tail[p - layout.f_len - 1])
                    for p in range(max(s, layout.f_len + 1), e + 1)
                }
                try:
                    rec = recover_interval_multihead(
                        segments,
                        cnt,
                        params.geometry,
                        period_filter=(upto - s + 1, params.k, params.T),
                        pinned=pinned or None,
                        budget=8192 if crosses else 250_000,
                    )
                except RtCodecError as err:
                    if not crosses:
                        raise DecodeFailure("interval", str(err)) from err
                    # fall back to the block-hash erasure path
            if rec is None:
                heavy.update(blocks_touched(layout, s, upto))
            else:
                est[s - 1 : upto] = rec[: upto - s + 1]
            trace.event("interval", **spans, outcome="heavy" if rec is None else "recovered")

    with trace.stage("restore"):
        trace.event("heavy", blocks=sorted(heavy))
        if heavy:
            est, _ = restore_blocks(est, sorted(heavy), boot.parity, layout, params, boot.row1, boot.sigma, 0, trace)
    with trace.stage("finish"):
        return finish(est, boot.tail, D, params)
