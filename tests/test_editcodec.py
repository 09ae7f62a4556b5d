"""End-to-end edit codecs: three regimes, budgets, adversarial choices."""

import json
import random

import numpy as np
import pytest

from rtcodec.bits import majority
from rtcodec.editcodec import decode_edits, edit_layout, encode_edits
from rtcodec.errors import DecodeFailure, ParamViolation
from rtcodec.model import BitTrack, EditPattern, apply_edits, sample_edit_pattern
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods
from rtcodec.trace import Trace

from helpers import cluster_interval_assignment, edit_clusters, of_kind, reference_rep_decode_unskipped


def roundtrip(params, msg, pattern, **kw):
    cw = BitTrack(encode_edits(msg, params))
    E = apply_edits(cw, pattern, params.geometry)
    return decode_edits(E, params, **kw)


def test_direct_codeword_is_capped_track():
    params = CodeParams.edit(512, 2, 3)
    msg = BitTrack([0, 1] * 256)
    cw = encode_edits(msg, params)
    assert np.array_equal(cw, cap_periods(msg.bits, 2))
    assert len(cw) == 512 + 2 + 1  # redundancy exactly k+1


def test_layout_arithmetic_identity():
    for n, k, d in ((512, 4, 3), (512, 4, 2), (400, 6, 2)):
        params = CodeParams.edit(n, k, d)
        lay = edit_layout(params)
        msg = BitTrack([0] * n)
        cw = encode_edits(msg, params)
        assert len(cw) == lay.total
        assert len(cw) - n == k + 1 + lay.n1 + lay.n2
        if params.regime == "rs":
            assert lay.parity_groups == 2 * (k // d)


def test_zero_errors_roundtrip_all_regimes():
    rng = random.Random(0)
    for n, k, d in ((1024, 2, 3), (512, 4, 3), (512, 4, 2)):
        params = CodeParams.edit(n, k, d)
        msg = BitTrack([rng.randrange(2) for _ in range(n)])
        pat = EditPattern((), (), tuple(() for _ in range(d)))
        assert np.array_equal(roundtrip(params, msg, pat), msg.bits)


def test_direct_random_roundtrip():
    rng = random.Random(1)
    params = CodeParams.edit(8192, 2, 3)
    for _ in range(15):
        msg = BitTrack([rng.randrange(2) for _ in range(8192)])
        cw = BitTrack(encode_edits(msg, params))
        pat = sample_edit_pattern(rng, len(cw), 2, params.geometry)
        E = apply_edits(cw, pat, params.geometry)
        assert np.array_equal(decode_edits(E, params), msg.bits)


def test_pair_random_roundtrip():
    rng = random.Random(2)
    params = CodeParams.edit(1024, 4, 3)
    for _ in range(10):
        msg = BitTrack([rng.randrange(2) for _ in range(1024)])
        cw = BitTrack(encode_edits(msg, params))
        pat = sample_edit_pattern(rng, len(cw), 4, params.geometry)
        E = apply_edits(cw, pat, params.geometry)
        assert np.array_equal(decode_edits(E, params), msg.bits)


def test_rs_random_roundtrip():
    rng = random.Random(3)
    params = CodeParams.edit(1024, 4, 2)
    for _ in range(10):
        msg = BitTrack([rng.randrange(2) for _ in range(1024)])
        cw = BitTrack(encode_edits(msg, params))
        pat = sample_edit_pattern(rng, len(cw), 4, params.geometry)
        E = apply_edits(cw, pat, params.geometry)
        assert np.array_equal(decode_edits(E, params), msg.bits)


def test_substitution_as_del_plus_ins():
    rng = random.Random(4)
    params = CodeParams.edit(8192, 2, 3)
    msg = BitTrack([rng.randrange(2) for _ in range(8192)])
    cw = BitTrack(encode_edits(msg, params))
    p = 4000
    flipped = 1 - int(cw.bits[p - 1])
    pat = EditPattern((p,), (p,), tuple((flipped,) for _ in range(3)))
    E = apply_edits(cw, pat, params.geometry)
    assert np.array_equal(decode_edits(E, params), msg.bits)


def test_same_spot_del_ins_may_vanish():
    """Re-inserting the deleted bit in every head leaves the matrix clean."""
    rng = random.Random(5)
    params = CodeParams.edit(8192, 2, 3)
    msg = BitTrack([rng.randrange(2) for _ in range(8192)])
    cw = BitTrack(encode_edits(msg, params))
    p = 4000
    same = int(cw.bits[p - 1])
    pat = EditPattern((p,), (p,), tuple((same,) for _ in range(3)))
    E = apply_edits(cw, pat, params.geometry)
    assert np.array_equal(decode_edits(E, params), msg.bits)


def test_budget_and_prop4_accounting():
    rng = random.Random(6)
    params = CodeParams.edit(1024, 4, 2)
    t = params.geometry.distances[0]
    for _ in range(10):
        msg = BitTrack([rng.randrange(2) for _ in range(1024)])
        cw = BitTrack(encode_edits(msg, params))
        pat = sample_edit_pattern(rng, len(cw), 4, params.geometry)
        E = apply_edits(cw, pat, params.geometry)
        trace = Trace()
        out = decode_edits(E, params, trace)
        assert np.array_equal(out, msg.bits)
        accepted = [c for c in of_kind(trace, "choice") if c["ok"]]
        assert accepted[0]["budget"] <= params.k
        outcomes = of_kind(trace, "interval")
        clusters = edit_clusters(pat.delta1, pat.gamma1, params.d, t)
        intervals = [oc["read_span"] for oc in outcomes]
        assign = cluster_interval_assignment(clusters, intervals, pat.delta1, pat.gamma1)
        for j, oc in enumerate(outcomes):
            err_j = sum(clusters[ci]["count"] for ci in assign[j])
            if oc["heads_left"] is not None:
                assert err_j >= params.d - oc["heads_left"], "reduction claimed too much"


def test_adversarial_all_choices_agree():
    """Every accepted distrust-choice must yield the same decoded track."""
    rng = random.Random(7)
    params = CodeParams.edit(1024, 4, 2)
    for _ in range(8):
        msg = BitTrack([rng.randrange(2) for _ in range(1024)])
        cw = BitTrack(encode_edits(msg, params))
        pat = sample_edit_pattern(rng, len(cw), 4, params.geometry)
        E = apply_edits(cw, pat, params.geometry)
        trace = Trace()
        out = decode_edits(E, params, trace)
        assert np.array_equal(out, msg.bits)
        assert len([c for c in of_kind(trace, "choice") if c["ok"]]) >= 1


def test_kind_gate():
    with pytest.raises(ParamViolation):
        encode_edits(BitTrack([0] * 64), CodeParams.deletion(64, 3, 2))


def test_bad_length_rejected():
    params = CodeParams.edit(512, 2, 3)
    msg = BitTrack([0] * 512)
    cw = BitTrack(encode_edits(msg, params))
    from rtcodec.model import ReadMatrix

    E = apply_edits(cw, EditPattern((), (), ((), (), ())), params.geometry)
    bad = ReadMatrix(E.rows[:, :-20], kind="edit")
    with pytest.raises(DecodeFailure):
        decode_edits(bad, params)
    # a row too few or too many for the d-head code fails at input, however plausible each row
    for rows in (E.rows[:2], np.vstack([E.rows, E.rows[:1]])):
        with pytest.raises(DecodeFailure) as err:
            decode_edits(ReadMatrix(rows, kind="edit"), params)
        assert err.value.stage == "input"


@pytest.mark.parametrize("k,d,regime", [(2, 3, "direct"), (4, 3, "pair"), (4, 2, "rs")])
def test_trace_stages_and_events(k, d, regime):
    params = CodeParams.edit(1024, k, d)
    assert params.regime == regime
    rng = random.Random(30 + k + d)
    msg = BitTrack([rng.randrange(2) for _ in range(1024)])
    cw = BitTrack(encode_edits(msg, params))
    pat = sample_edit_pattern(rng, len(cw), k, params.geometry)
    E = apply_edits(cw, pat, params.geometry)
    trace = Trace()
    assert np.array_equal(decode_edits(E, params, trace), msg.bits)
    last = "finish" if regime == "direct" else "choices"
    assert set(trace.stages) == {"bootstrap", "sync", "intervals", last}
    assert len(of_kind(trace, "interval")) >= 1
    choices = of_kind(trace, "choice")
    if regime == "direct":
        assert choices == []
    else:
        assert any(c["ok"] for c in choices)
    doc = trace.to_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_shift_votes_are_traced():
    """One ``shift_vote`` per interval whose net shift was voted, its
    majority the interval's shift; sentinel windows count as ``shift.fallbacks``."""
    params = CodeParams.edit(1024, 4, 2)
    rng = random.Random(44)
    votes_seen = 0
    for _ in range(10):
        msg = BitTrack([rng.randrange(2) for _ in range(1024)])
        cw = BitTrack(encode_edits(msg, params))
        E = apply_edits(cw, sample_edit_pattern(rng, 1029, 4, params.geometry), params.geometry)
        trace = Trace()
        assert np.array_equal(decode_edits(E, params, trace), msg.bits)
        shifts = {tuple(ev["read_span"]): ev["shift"] for ev in of_kind(trace, "interval")}
        agree = (E.rows == E.rows[0]).all(axis=0)
        voted = [span for span in shifts if span[1] != E.cols and not agree[span[0] - 1 : span[1]].all()]
        votes = of_kind(trace, "shift_vote")
        assert [tuple(v["interval"]) for v in votes] == voted
        for v in votes:
            assert len(v["sums"]) == 4 * params.k + 1
            assert -majority(v["sums"], "net-shift") == shifts[tuple(v["interval"])]
        assert (trace.counters["shift.fallbacks"] > 0) <= bool(votes)
        votes_seen += len(votes)
    assert votes_seen


def test_sigma_bits_in_front_of_r2_skip_the_dp():
    """Four insertions in the capped track put four of R1's last bits in front
    of R2. The two run parses of the whole R2 read fail and the DP would run;
    the parse of the read past those bits is exactly R2, so it is certified."""
    params = CodeParams.edit(1024, 4, 2)
    rng = np.random.default_rng(2026)
    for _ in range(1065):
        msg = rng.integers(0, 2, 1024, dtype=np.uint8)
    pattern = EditPattern((), (85, 120, 210, 227), ((1, 1, 0, 0), (0, 0, 0, 0)))
    cw = encode_edits(BitTrack(msg), params)
    E = apply_edits(BitTrack(cw), pattern, params.geometry)
    trace = Trace()
    assert np.array_equal(decode_edits(E, params, trace), msg)
    assert trace.counters["rep.parse_skip"] == 1 and trace.counters["rep.dp"] == 0, dict(trace.counters)
    # the bootstrap's R2 decode as it read before the skip parse
    layout, row1, old = edit_layout(params), E.rows[0], Trace()
    reference_rep_decode_unskipped(row1[layout.total - layout.n2 :], params.k + 1, layout.n1, old)
    assert dict(old.counters) == {"rep.dp": 1}
    assert np.array_equal(row1[layout.total - layout.n2 + 4 :], cw[layout.total - layout.n2 :])
