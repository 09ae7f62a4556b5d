"""The shift table (``bits.shift_table``) against the one-window probe loop it
replaced, and its three callers against verbatim copies of their loop forms:
the same votes, fallback counts, reduction steps, results and exceptions."""

import random
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcodec.bits import majority, shift_table
from rtcodec.delsync import count_deletions_in_interval, identify_intervals
from rtcodec.editsync import head_reduction_recover, identify_edit_intervals, net_shift_of_interval
from rtcodec.model import BitTrack, ReadMatrix, apply_deletions, apply_edits, sample_edit_pattern
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods
from rtcodec.trace import Trace

import helpers
from helpers import (
    of_kind,
    reference_count_deletions_in_interval,
    reference_head_reduction_recover,
    reference_net_shift_of_interval,
    reference_probe_shift_loop,
    sample_deletions,
)


@st.composite
def row_pairs(draw):
    """Low-entropy rows of unequal lengths, the second a shifted, flipped copy."""
    period = np.array(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)), dtype=np.uint8)
    row_a = np.resize(period, draw(st.integers(1, 48)))
    row_b = np.resize(np.roll(row_a, draw(st.integers(-4, 4))), max(1, len(row_a) + draw(st.integers(-6, 6))))
    for row in (row_a, row_b):
        for j in draw(st.lists(st.integers(0, len(row) - 1), max_size=2)):
            row[j] ^= 1
    return row_a, row_b


@settings(max_examples=250, deadline=None)
@given(row_pairs(), st.data())
def test_shift_table_matches_the_probe_loop(rows, data):
    """Windows past either end, starting before column 1, and no longer than
    the largest shift included."""
    row_a, row_b = rows
    k = data.draw(st.integers(0, 4))
    shifts = range(-k, k + 1) if data.draw(st.booleans()) else range(k + 1)
    windows = data.draw(
        st.lists(st.tuples(st.integers(-2, len(row_a) + 2), st.integers(-1, len(row_a) + 3)), max_size=8)
    )
    a = [p for p, _ in windows]
    b = [p + length - 1 for p, length in windows]
    want = [reference_probe_shift_loop(row_a, row_b, p, q, shifts) for p, q in zip(a, b)]
    assert shift_table(row_a, row_b, a, b, shifts) == want


def test_shift_table_with_no_window():
    assert shift_table(np.zeros(5, dtype=np.uint8), np.zeros(5, dtype=np.uint8), [], [], range(3)) == []


def outcome(call):
    """(value, None) or (None, (exception class, message))."""
    try:
        return call(), None
    except Exception as e:  # noqa: BLE001 - the classes are what is compared
        return None, (type(e), str(e))


def edit_reads(seed: int, params: CodeParams, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        c = cap_periods(np.array([rng.randrange(2) for _ in range(params.n)], dtype=np.uint8), params.k)
        pattern = sample_edit_pattern(rng, len(c), params.k, params.geometry)
        yield apply_edits(BitTrack(c), pattern, params.geometry)


def scrambled(E: ReadMatrix, rng: random.Random) -> ReadMatrix:
    """Row 2 with a stretch overwritten by a short period, so windows match several shifts or none."""
    rows = [row.copy() for row in E.rows]
    lo = rng.randrange(len(rows[1]) // 2)
    rows[1][lo : lo + rng.randrange(40, 400)] = rng.randrange(2)
    return ReadMatrix(np.stack(rows))


def test_net_shift_matches_the_loop_vote(monkeypatch):
    """Same net shift or the same exception, and ``shift_vote`` sums equal to
    the sums the loop handed to its vote, on seeded and scrambled edit reads.
    The extra intervals end one column before a window start, which the
    take-while still admits."""
    loop_sums = []

    def recording_majority(values, what):
        loop_sums.append(list(values))
        return majority(loop_sums[-1], what)

    monkeypatch.setattr(helpers, "majority", recording_majority)
    seen = {"value": 0, "raised": 0, "fallbacks": 0}
    for params, seed in ((CodeParams.edit(1024, 4, 2), 1), (CodeParams.edit(2048, 2, 3), 2)):
        rng = random.Random(seed)
        t = params.geometry.distances[0]
        for E in edit_reads(seed, params, 40):
            for reads in (E, scrambled(E, rng)):
                for interval in identify_edit_intervals(reads, params) + [(1, reads.cols // 2), (1, t), (1, 2 * t)]:
                    trace = Trace()
                    loop_sums.clear()
                    got = outcome(lambda: net_shift_of_interval(reads, interval, params, trace))
                    assert got == outcome(lambda: reference_net_shift_of_interval(reads, interval, params))
                    assert [vote["sums"] for vote in of_kind(trace, "shift_vote")] == loop_sums
                    assert all(vote["interval"] == interval for vote in of_kind(trace, "shift_vote"))
                    seen["raised" if got[1] else "value"] += 1
                    seen["fallbacks"] += trace.counters["shift.fallbacks"]
    assert all(seen.values()), seen


def test_count_matches_the_loop_vote():
    """Same count or the same exception, the same ``count_vote`` sums and the
    same ``count.fallbacks``, on seeded and scrambled deletion reads."""
    seen = {"value": 0, "raised": 0, "fallbacks": 0}
    for params, seed in ((CodeParams.deletion(1024, 4, 2), 3), (CodeParams.deletion(2048, 3, 3), 4)):
        rng = random.Random(seed)
        for _ in range(40):
            c = cap_periods(np.array([rng.randrange(2) for _ in range(params.n)], dtype=np.uint8), params.k)
            D = apply_deletions(BitTrack(c), sample_deletions(rng, len(c), params.k, params.geometry), params.geometry)
            for reads in (D, scrambled(D, rng)):
                for interval in identify_intervals(reads, params) + [(1, reads.cols // 2)]:
                    traces = Trace(), Trace()
                    got = outcome(lambda: count_deletions_in_interval(reads, interval, params, traces[0]))
                    assert got == outcome(lambda: reference_count_deletions_in_interval(reads, interval, params, traces[1]))
                    assert traces[0].events == traces[1].events
                    assert traces[0].counters == traces[1].counters
                    seen["raised" if got[1] else "value"] += 1
                    seen["fallbacks"] += traces[0].counters["count.fallbacks"]
    assert all(seen.values()), seen


def test_head_reduction_matches_the_loop_ladder():
    """Same surviving row and head count, or the same exception, and the same
    ``reduction_step`` events, on the interval segments of seeded edit reads,
    also with the rows in reverse order (so that the last row can be the
    minority and the ladder runs left)."""
    seen = {"right": 0, "left": 0, "stuck": 0}
    for params, seed in ((CodeParams.edit(1024, 4, 2), 5), (CodeParams.edit(2048, 2, 3), 6)):
        rng = random.Random(seed)
        for E in edit_reads(seed, params, 40):
            for reads in (E, scrambled(E, rng)):
                for (b1, b2), order in product(identify_edit_intervals(reads, params), (1, -1)):
                    segments = [row[b1 - 1 : b2] for row in reads.rows[::order]]
                    traces = Trace(), Trace()
                    got = outcome(lambda: head_reduction_recover(segments, params, traces[0]))
                    want = outcome(lambda: reference_head_reduction_recover(segments, params, traces[1]))
                    assert got[1] == want[1]
                    if got[1] is None:
                        assert np.array_equal(got[0][0], want[0][0]) and got[0][1] == want[0][1]
                    assert traces[0].events == traces[1].events
                    for step in of_kind(traces[0], "reduction_step"):
                        seen[step["direction"]] += 1
                    seen["stuck"] += got[1] is not None
    assert all(seen.values()), seen
