"""Reed-Solomon, pair parity, and repetition sub-codes."""

import random
from itertools import combinations

import numpy as np
import pytest

from rtcodec.algebra import _rep_run_parse, rep_decode, rep_encode, rs_decode_errors_erasures
from rtcodec.errors import (
    DecodeFailure,
    FieldTooSmall,
    MalformedRepetition,
    TooManyErasures,
)
from rtcodec.trace import Trace

from helpers import (
    edit_ball,
    erase,
    pair_parity,
    pair_restore,
    reference_rep_decode_dp,
    reference_rep_run_parse,
    rs_codeword,
)


def test_rs_zero_redundancy_is_identity():
    assert rs_codeword((1, 2, 3), 0) == [1, 2, 3]


def test_rs_all_zero_message():
    assert rs_codeword((0,) * 5, 3) == [0] * 8


def test_rs_erasures_exhaustive_short_lengths():
    """Every message length + parity with total length <= 8, every erasure set."""
    rng = random.Random(11)
    for m_len in range(1, 8):
        for r in range(0, 8 - m_len + 1):
            for _ in range(3):
                msg = [rng.randrange(256) for _ in range(m_len)]
                cw = rs_codeword(msg, r)
                n = m_len + r
                for e in range(r + 1):
                    for pos in combinations(range(n), e):
                        out = rs_decode_errors_erasures(erase(cw, pos), pos, r)
                        assert out[:m_len] == msg


def test_rs_erasure_contract_boundary():
    msg = [9, 8, 7]
    cw = rs_codeword(msg, 2)
    with pytest.raises(TooManyErasures):
        rs_decode_errors_erasures(erase(cw, (0, 2, 4)), (0, 2, 4), 2)
    # zero erasures: systematic prefix unchanged
    assert rs_decode_errors_erasures(cw, (), 2)[:3] == msg


def test_rs_random_erasures_large():
    rng = random.Random(12)
    for _ in range(2000):
        m_len = rng.randrange(1, 12)
        r = rng.randrange(0, 6)
        msg = [rng.randrange(256) for _ in range(m_len)]
        cw = rs_codeword(msg, r)
        pos = rng.sample(range(m_len + r), rng.randrange(0, r + 1))
        assert rs_decode_errors_erasures(erase(cw, pos), sorted(pos), r)[:m_len] == msg


def test_rs_errors_and_erasures_exhaustive_positions():
    """distance 5: 2 erasures + 1 substitution anywhere, exact recovery."""
    rng = random.Random(13)
    for _ in range(8):
        msg = [rng.randrange(256) for _ in range(6)]
        cw = rs_codeword(msg, 4)
        n = 10
        for epos in combinations(range(n), 2):
            for spos in range(n):
                if spos in epos:
                    continue
                symbols = list(cw)
                symbols[spos] ^= rng.randrange(1, 256)
                out = rs_decode_errors_erasures(erase(symbols, epos), epos, 4)
                assert out == cw


def test_rs_errors_only_identity_when_clean():
    cw = rs_codeword((5, 6, 7, 8), 4)
    assert rs_decode_errors_erasures(cw, (), 4) == cw


def test_rs_beyond_radius_raises_not_lies():
    """Brute-force search for a 3-error corruption (radius 2) that is detected."""
    cw = rs_codeword((1, 2), 4)
    n = 6
    raised = 0
    rng = random.Random(14)
    for _ in range(200):
        symbols = list(cw)
        for p in rng.sample(range(n), 3):
            symbols[p] ^= rng.randrange(1, 256)
        try:
            out = rs_decode_errors_erasures(symbols, (), 4)
            # silent miscorrection must at least be a *different* codeword
            assert out != cw or symbols == cw
        except DecodeFailure:
            raised += 1
    assert raised > 0


def test_rs_field_too_small():
    with pytest.raises(FieldTooSmall):
        rs_codeword((0,) * 250, 10)


def test_rs_wide_field():
    rng = random.Random(15)
    msg = [rng.randrange(1 << 16) for _ in range(300)]
    cw = rs_codeword(msg, 6, width=16)
    pos = (0, 5, 299, 303)
    assert rs_decode_errors_erasures(erase(cw, pos), pos, 6, width=16)[:300] == msg


# ---------------------------------------------------------------------------
# pair parity


def test_oddeven_zero_message():
    assert pair_parity([0, 0, 0, 0]) == (0, 0)


def test_oddeven_formula():
    a, b, c, d = 5, 9, 12, 3
    assert pair_parity([a, b, c, d]) == (a ^ c, b ^ d)


def test_oddeven_every_consecutive_pair_exhaustive():
    rng = random.Random(16)
    for n in range(2, 65):
        syms = [rng.randrange(256) for _ in range(n)]
        parity = pair_parity(syms)
        for j in range(n - 1):
            word = list(syms)
            word[j] = None
            word[j + 1] = None
            assert pair_restore(word, parity) == syms
        # single erasure and none
        word = list(syms)
        word[n // 2] = None
        assert pair_restore(word, parity) == syms
        assert pair_restore(list(syms), parity) == syms


def test_oddeven_rejects_nonconsecutive():
    syms = [1, 2, 3, 4, 5, 6]
    parity = pair_parity(syms)
    word = list(syms)
    word[1] = None
    word[4] = None
    with pytest.raises(TooManyErasures):
        pair_restore(word, parity)


# ---------------------------------------------------------------------------
# repetition


def test_rep_encode_definition():
    assert rep_encode([1, 0], 3).tolist() == [1, 1, 1, 0, 0, 0]


def test_rep_single_deletion():
    assert rep_decode([1, 1, 0, 0, 0], 3, 2).tolist() == [1, 0]


def test_rep_single_insertion():
    assert rep_decode([1, 1, 1, 1, 0, 0, 0], 3, 2).tolist() == [1, 0]


def test_rep_exhaustive_deletions_fold3():
    for v in range(16):
        msg = [int(b) for b in format(v, "04b")]
        cw = "".join(str(b) * 3 for b in msg)
        words = {cw}
        for _ in range(2):
            words = {w[:i] + w[i + 1 :] for w in words for i in range(len(w))}
            for w in words:
                assert rep_decode(w, 3, 4).tolist() == msg


def test_rep_exhaustive_mixed_edits_small():
    """All <= k mixed edits for short messages (full sweep runs in acceptance)."""
    for k in (1, 2):
        fold = k + 1
        for length in range(1, 5):
            for v in range(1 << length):
                msg = format(v, f"0{length}b")
                cw = "".join(ch * fold for ch in msg)
                for y in edit_ball(cw, k):
                    out = rep_decode(y, fold, length)
                    assert "".join(map(str, out)) == msg


def test_rep_malformed():
    with pytest.raises(MalformedRepetition):
        rep_decode([1, 0, 1, 0, 1, 0], 4, 2)  # nothing 4-ish about this
    with pytest.raises(MalformedRepetition):
        rep_decode([1] * 12, 3, 2)  # drift beyond budget


def random_edits(rng: random.Random, word: np.ndarray, edits: int, insertions: bool) -> np.ndarray:
    """``edits`` random deletions, or a random mix with insertions of random bits."""
    y = word.tolist()
    for _ in range(edits):
        if insertions and (not y or rng.randrange(2)):
            y.insert(rng.randrange(len(y) + 1), rng.randrange(2))
        else:
            del y[rng.randrange(len(y))]
    return np.array(y, dtype=np.uint8)


def runs_of(y) -> tuple[np.ndarray, np.ndarray]:
    """The value and the length of each run of y."""
    y = np.asarray(y, dtype=np.uint8)
    starts = [i for i in range(len(y)) if i == 0 or y[i] != y[i - 1]]
    return y[starts], np.diff([*starts, len(y)]).astype(np.int64)


def test_rep_decode_matches_reference_decoders():
    """The plain DP agrees with the numpy DP and the vectorised run parse with
    the loop over runs, on both sides of the old 64-symbol cut, up to one edit
    past the budget."""
    rng = random.Random(2031)
    outcomes = {"decoded": 0, "raised": 0}
    for fold in range(2, 7):
        long_len = rng.randrange(4000, 5001)
        for msg_len in (1, 2, 5, 20, 63, 64, 65, 66, 130, 700, long_len):
            for edits in range(fold + 1) if msg_len < long_len else (fold - 1, fold):
                msg = np.array([rng.randrange(2) for _ in range(msg_len)], dtype=np.uint8)
                cw = rep_encode(msg, fold)
                dels = random_edits(rng, cw, edits, insertions=False)
                want = reference_rep_run_parse(dels, fold)
                got, cost = _rep_run_parse(*runs_of(dels), fold, fold - 1)
                assert (cost > fold - 1) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want[0]) and cost == want[1]
                for y in (dels, random_edits(rng, cw, edits, insertions=True)):
                    try:
                        want = reference_rep_decode_dp(y, fold, msg_len)
                    except MalformedRepetition:
                        with pytest.raises(MalformedRepetition):
                            rep_decode(y, fold, msg_len)
                        outcomes["raised"] += 1
                        continue
                    assert np.array_equal(rep_decode(y, fold, msg_len), want)
                    outcomes["decoded"] += 1
    assert outcomes["decoded"] > 0 and outcomes["raised"] > 0, outcomes


def test_rep_nearest_parse_merges_one_run_at_a_time():
    """Of two symbol-less runs, deleting the first merges 9+1 into two clean
    symbols; deleting both at once would leave three rounding edits."""
    values, lengths = np.array([1, 0, 1, 0], dtype=np.uint8), np.array([9, 1, 1, 5])
    parsed, edits = _rep_run_parse(values, lengths, 5, 5 // 2)
    assert parsed.tolist() == [1, 1, 0] and edits == 1
    assert lengths.tolist() == [9, 1, 1, 5]  # the caller's runs are left as they were


def same_outcome(y, fold: int, msg_len: int) -> str:
    """Which path decoded y, after checking that rep_decode returns what the
    reference DP returns, or raises the same exception class."""
    trace = Trace()
    try:
        want = reference_rep_decode_dp(y, fold, msg_len)
    except MalformedRepetition:
        with pytest.raises(MalformedRepetition):
            rep_decode(y, fold, msg_len, trace)
        return "raised"
    got = rep_decode(y, fold, msg_len, trace)
    assert np.array_equal(got, want), (list(y), fold, msg_len)
    (path,) = trace.counters
    return path


def planted_words(fold: int):
    """(word, msg_len) pairs around the spots where a run parse can go wrong."""
    budget = fold - 1
    for b in (0, 1):
        flank = [1 - b] * (2 * fold)
        # an opposite bit inserted at every offset of a run of 1 to 3*fold bits
        for run in range(1, 3 * fold + 1):
            for offset in range(run + 1):
                middle = [b] * offset + [1 - b] + [b] * (run - offset)
                y = flank + middle + flank
                for msg_len in range(max((len(y) - budget) // fold, 1), (len(y) + budget) // fold + 1):
                    yield y, msg_len
    rng = random.Random(fold)
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(8)]
        cw = rep_encode(msg, fold).tolist()
        bounds = [i for i in range(1, len(cw)) if cw[i] != cw[i - 1]]
        # one bit inserted at each run boundary, with up to fold-1 more edits
        for i in bounds:
            for bit in (0, 1):
                y = cw[:i] + [bit] + cw[i:]
                yield y, len(msg)
                yield random_edits(rng, np.array(y, dtype=np.uint8), rng.randrange(fold), True).tolist(), len(msg)
        # prefix bits slid in from before the word, or slid out of it
        for slide in range(1, fold + 1):
            yield [rng.randrange(2) for _ in range(slide)] + cw, len(msg)
            yield cw[slide:], len(msg)
            yield [1 - cw[0]] * slide + random_edits(rng, np.array(cw), fold - slide, True).tolist(), len(msg)


def test_rep_decode_parses_agree_with_the_reference_dp():
    """Both run parses give what the DP gives, on every input: criterion 2's
    balls taken one edit past the budget, seeded random words, and planted
    shapes (an opposite bit at every offset of a run, insertions at run
    boundaries, slid prefix bits)."""
    paths = {"rep.parse_up": 0, "rep.parse_nearest": 0, "rep.parse_skip": 0, "rep.dp": 0, "raised": 0}
    for fold, max_len in ((2, 6), (3, 4), (4, 2)):
        for length in range(1, max_len + 1):
            ball = set()
            for v in range(1 << length):
                ball |= edit_ball("".join(ch * fold for ch in format(v, f"0{length}b")), fold)
            for y in sorted(ball):
                paths[same_outcome(np.array([int(ch) for ch in y], dtype=np.uint8), fold, length)] += 1
    rng = random.Random(2040)
    for fold in range(2, 7):
        for _ in range(100):
            msg_len = rng.randrange(1, 30)
            y = np.array([rng.randrange(2) for _ in range(fold * msg_len + rng.randrange(-fold, fold + 1))], dtype=np.uint8)
            paths[same_outcome(y, fold, msg_len)] += 1
            cw = rep_encode([rng.randrange(2) for _ in range(msg_len)], fold)
            paths[same_outcome(random_edits(rng, cw, rng.randrange(fold + 2), True), fold, msg_len)] += 1
        for y, msg_len in planted_words(fold):
            paths[same_outcome(np.array(y, dtype=np.uint8), fold, msg_len)] += 1
    assert all(paths.values()), paths


def test_rep_skip_parse_agrees_with_the_reference_dp():
    """A word longer than its repetition is also parsed past its extra leading
    bits, and rep_decode still gives what the DP gives on the whole word:
    repetition words with up to fold-1 bits slid in front and more edits after
    them, so the extra bits are the slid ones or not."""
    paths = {"rep.parse_up": 0, "rep.parse_nearest": 0, "rep.parse_skip": 0, "rep.dp": 0, "raised": 0}
    rng = random.Random(2042)
    for fold in range(2, 7):
        for _ in range(200):
            msg_len = rng.randrange(1, 30)
            cw = rep_encode([rng.randrange(2) for _ in range(msg_len)], fold)
            lead = rng.randrange(1, fold)
            slid = np.array([rng.randrange(2) for _ in range(lead)], dtype=np.uint8)
            y = np.concatenate([slid, random_edits(rng, cw, rng.randrange(fold - lead + 2), True)])
            paths[same_outcome(y, fold, msg_len)] += 1
    assert all(paths.values()), paths


def test_rep_decode_skips_the_dp_on_edit_rs_words():
    """R2 words of the edit-rs shape (fold 5, 4128 symbols) with at most 4
    mixed edits are all answered by a run parse."""
    rng = np.random.default_rng(2041)
    trace = Trace()
    for _ in range(200):
        msg = rng.integers(0, 2, size=4128, dtype=np.uint8)
        y = rep_encode(msg, 5)
        for _ in range(rng.integers(0, 5)):
            if rng.integers(2):
                y = np.insert(y, rng.integers(len(y) + 1), rng.integers(2))
            else:
                y = np.delete(y, rng.integers(len(y)))
        assert np.array_equal(rep_decode(y, 5, 4128, trace), msg)
    assert trace.counters["rep.dp"] == 0, dict(trace.counters)
    assert sum(trace.counters.values()) == 200
