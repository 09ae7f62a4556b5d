"""Byte-identity of the vectorised encode path (and the vectorised
agreement-run scan of the decoders) against the per-position reference
implementations in ``helpers``, on a seeded corpus; and of the shared
read-synchronization report and shift probe against the separate deletion
and edit versions they replaced."""

import random

import numpy as np
import pytest

from rtcodec.bits import (
    IntervalReport,
    agreement_run_starts,
    bits_from_int,
    format_track,
    parse_track,
    probe_shift,
)
from rtcodec.delcodec import encode_deletions
from rtcodec.delsync import build_report
from rtcodec.editcodec import encode_edits
from rtcodec.editsync import build_edit_report
from rtcodec.files import read_matrix, write_matrix
from rtcodec.layout import (
    Layout,
    bits_to_groups,
    groups_to_bits,
    pack_group,
    parity_groups_pair,
    parity_groups_rs,
    unpack_group,
)
from rtcodec.model import (
    BitTrack,
    DeletionPattern,
    EditPattern,
    ReadMatrix,
    apply_deletions,
    apply_edits,
    sample_edit_pattern,
)
from rtcodec.params import CodeParams
from rtcodec.periodicity import cap_periods

from helpers import (
    ReferenceDeletionReport,
    ReferenceEditReport,
    reference_agreement_run_starts,
    reference_align_and_recover_clean_bits,
    reference_cap_periods,
    reference_change_points,
    reference_count_probe,
    reference_format_track,
    reference_oddeven_parity,
    reference_parity_groups_rs,
    reference_parse_track,
    reference_probe_shift,
    reference_recover_outside_bits,
    reference_source_end,
    sample_deletions,
)


def plant_runs(rng, c: np.ndarray, k: int, count: int) -> np.ndarray:
    """Overwrite ``count`` random stretches of c with runs of period <= k."""
    c = c.copy()
    n = len(c)
    for _ in range(count):
        p = int(rng.integers(1, k + 1))
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(1, 120)))
        c[start:stop] = np.resize(rng.integers(0, 2, p, dtype=np.uint8), stop - start)
    return c


def assert_cap_matches(c: np.ndarray, k: int) -> None:
    got, want = cap_periods(c, k), reference_cap_periods(c, k)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want), f"n={len(c)} k={k}"


def test_cap_random_tracks():
    rng = np.random.default_rng(20221)
    sizes = [1, 2, 3, 5, 17, 64, 255, 1000, 5000] + [int(x) for x in rng.integers(1, 5001, 12)]
    for i, n in enumerate(sizes):
        k = 1 + i % 6
        assert_cap_matches(rng.integers(0, 2, n, dtype=np.uint8), k)


def test_cap_planted_periodic_runs():
    rng = np.random.default_rng(20222)
    for i in range(40):
        n = int(rng.integers(1, 1500))
        k = 1 + i % 6
        c = plant_runs(rng, rng.integers(0, 2, n, dtype=np.uint8), k, int(rng.integers(1, 8)))
        assert_cap_matches(c, k)


@pytest.mark.parametrize("pattern", [[0], [1], [0, 1], [1, 1, 0]], ids=["zero", "one", "alternating", "period3"])
def test_cap_periodic_tracks(pattern):
    for n in (1, 10, 63, 500, 2049):
        for k in range(1, 7):
            assert_cap_matches(np.resize(np.array(pattern, dtype=np.uint8), n), k)


def test_cap_periodic_prefix_then_random():
    # the resume point after an excision lands inside a long periodic stretch
    rng = np.random.default_rng(20223)
    for k in (1, 2, 4):
        c = np.concatenate([np.zeros(700, dtype=np.uint8), rng.integers(0, 2, 700, dtype=np.uint8)])
        assert_cap_matches(c, k)
        assert_cap_matches(c[::-1].copy(), k)


def test_track_format_matches_reference():
    rng = np.random.default_rng(20224)
    for n in list(range(0, 40)) + [int(x) for x in rng.integers(40, 5000, 20)]:
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        text = format_track(bits)
        assert text == reference_format_track(bits)
        assert np.array_equal(parse_track(text), reference_parse_track(text))
        upper = text.upper().replace("LEN=", "len=")
        assert np.array_equal(parse_track(upper), reference_parse_track(upper))
        ascii_text = "".join(map(str, bits)) + "\n"
        if n:
            assert np.array_equal(parse_track(ascii_text), reference_parse_track(ascii_text))


def make_layout(groups: int, g: int, width: int) -> Layout:
    return Layout(
        n=1, k=1, f_len=1, block_len=2, blocks=(), hash_bits=g * width - 3 if g else 0,
        group_symbols=g, symbol_bits=width, parity_groups=groups,
    )


@pytest.mark.parametrize("width", [8, 16])
def test_rs_parity_matches_per_lane_reference(width):
    rng = np.random.default_rng(20225 + width)
    for _ in range(60):
        blocks = int(rng.integers(0, 60))
        g = int(rng.integers(1, 24))
        r = int(rng.integers(0, 9))
        groups = rng.integers(0, 1 << width, (blocks, g)).tolist()
        if blocks:
            groups[0][0] = 0  # a zero symbol takes the log-table bypass
        got = parity_groups_rs(groups, make_layout(r, g, width))
        assert got == reference_parity_groups_rs(groups, r, g, width)
        assert all(type(s) is int for grp in got for s in grp)


def test_pair_parity_matches_per_lane_reference():
    rng = np.random.default_rng(20226)
    for _ in range(40):
        blocks, g = int(rng.integers(0, 30)), int(rng.integers(1, 12))
        groups = rng.integers(0, 256, (blocks, g)).tolist()
        want = [[reference_oddeven_parity([grp[lane] for grp in groups])[j] for lane in range(g)] for j in range(2)]
        assert parity_groups_pair(groups, make_layout(2, g, 8)) == want


@pytest.mark.parametrize("width", [8, 16])
def test_symbol_packing_matches_bitwise_definition(width):
    rng = np.random.default_rng(20227 + width)
    for _ in range(30):
        g = int(rng.integers(1, 10))
        layout = make_layout(2, g, width)
        hash_bits = rng.integers(0, 2, int(rng.integers(0, layout.hash_bits + 1)), dtype=np.uint8)
        padded = np.zeros(g * width, dtype=np.uint8)
        padded[: len(hash_bits)] = hash_bits
        want = [int("".join(map(str, padded[i * width : (i + 1) * width])), 2) for i in range(g)]
        assert pack_group(hash_bits, layout) == want
        assert np.array_equal(unpack_group(want, layout, len(hash_bits)), hash_bits)
        groups = rng.integers(0, 1 << width, (2, g)).tolist()
        bits = groups_to_bits(groups, layout)
        assert np.array_equal(bits, np.concatenate([bits_from_int(s, width) for grp in groups for s in grp]))
        assert bits_to_groups(bits, layout, 2) == groups


def test_symbol_helpers_keep_their_checks():
    layout = make_layout(2, 2, 8)
    with pytest.raises(ValueError, match="does not fit in 8 bits"):
        groups_to_bits([[1, 256]], layout)
    with pytest.raises(ValueError, match="does not fit in 8 bits"):
        unpack_group([-1], layout, 8)
    with pytest.raises(ValueError):
        pack_group(np.ones(layout.hash_bits + 1, dtype=np.uint8), layout)
    with pytest.raises(ValueError):
        parity_groups_rs([[0, 300]], layout)


def test_matrix_file_rows_are_ascii_bits(tmp_path):
    rng = np.random.default_rng(20228)
    rows = rng.integers(0, 2, (3, 77), dtype=np.uint8)
    path = tmp_path / "m.mat"
    write_matrix(path, ReadMatrix(rows, kind="edit"))
    want = ["kind=edit rows=3 cols=77"] + ["".join("1" if b else "0" for b in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"
    assert read_matrix(path) == ReadMatrix(rows, kind="edit")
    for bad in ("kind=del rows=1 cols=3\n021\n", "kind=del rows=1 cols=3\n01é\n", "kind=del rows=0 cols=3\n"):
        path.write_text(bad)
        with pytest.raises(ValueError):
            read_matrix(path)


def test_agreement_run_starts_matches_reference():
    rng = np.random.default_rng(20229)
    cases = [np.zeros(0, dtype=bool), np.array([True]), np.array([False])]
    cases += [np.ones(n, dtype=bool) for n in (2, 17, 1000)]
    cases += [np.zeros(n, dtype=bool) for n in (2, 17, 1000)]
    for _ in range(60):
        n = int(rng.integers(0, 1001))
        cases.append(rng.random(n) < rng.random())
    for equal in cases:
        got, want = agreement_run_starts(equal), reference_agreement_run_starts(equal)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), f"n={len(equal)}"


def assert_report_matches_references(report: IntervalReport, rows, change_points, source_len: int) -> None:
    """Source spans and the outside-bit fill against both old reports.

    The deletion fill is compared only where it ran: on reports whose shifts
    are all <= 0 (deletion counts >= 0).
    """
    reads = ReadMatrix(rows)
    intervals, shifts = report.intervals, report.shifts
    old_edit = ReferenceEditReport(intervals, shifts, change_points)
    old_del = ReferenceDeletionReport(intervals, tuple(-x for x in shifts))
    src = report.source_intervals
    assert src == old_del.source_intervals
    for j, ((b1, b2), s_j) in enumerate(zip(intervals, shifts)):
        start = old_edit.source_start(j)
        assert src[j] == (start, reference_source_end(start, b1, b2, s_j))
    got = report.outside_bits(reads.rows[0], source_len)
    assert np.array_equal(got, reference_recover_outside_bits(reads, old_edit, source_len)), (intervals, shifts)
    if all(x <= 0 for x in shifts):
        want = reference_align_and_recover_clean_bits(reads, old_del, source_len)
        assert np.array_equal(got, want), (intervals, shifts)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sync_reports_match_old_reports_on_real_reads(k):
    """Errors anywhere in the codeword, and errors only in the capped track
    (where the intervals are counted by probes, not by the remainder)."""
    rng = random.Random(20230 + k)
    for mode in ("del", "edit"):
        params = CodeParams.deletion(2048, k, 2) if mode == "del" else CodeParams.edit(2048, k, 2)
        g = params.geometry
        for trial in range(6):
            msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
            in_track = trial % 2 == 1
            if mode == "del":
                cw = BitTrack(encode_deletions(msg, params))
                if in_track:
                    pattern = DeletionPattern(tuple(rng.sample(range(1, params.n + 1), k)))
                else:
                    pattern = sample_deletions(rng, len(cw), k, g)
                reads = apply_deletions(cw, pattern, g)
                report = build_report(reads, params, total_shift=reads.cols - len(cw))
            else:
                cw = BitTrack(encode_edits(msg, params))
                if in_track:
                    r = rng.randrange((k + 1) // 2)  # fewer deletions than insertions: a positive shift
                    gamma1 = tuple(rng.sample(range(params.n + 1), k - r))
                    bits = tuple(tuple(rng.randrange(2) for _ in gamma1) for _ in range(params.d))
                    pattern = EditPattern(tuple(rng.sample(range(1, params.n + 1), r)), gamma1, bits)
                else:
                    pattern = sample_edit_pattern(rng, len(cw), k, g)
                reads = apply_edits(cw, pattern, g)
                report = build_edit_report(reads, params, total_shift=reads.cols - len(cw))
            change_points = reference_change_points(reads.rows, report.intervals)
            for source_len in (params.n + params.k + 1, len(cw)):
                assert_report_matches_references(report, reads.rows, change_points, source_len)


def test_sync_reports_match_old_reports_on_synthetic_reports():
    """Shifts of both signs; large positive ones make gaps map to overlapping
    source ranges or below position 1. Any change point inside its interval
    gives the old edit fill the same result."""
    rng = np.random.default_rng(20233)
    for _ in range(3000):
        cols = int(rng.integers(2, 300))
        rows = rng.integers(0, 2, (2, cols), dtype=np.uint8)
        J = int(rng.integers(1, min(6, cols // 2) + 1))
        cuts = np.sort(rng.choice(np.arange(1, cols + 1), 2 * J, replace=False))
        intervals = tuple((int(cuts[2 * j]), int(cuts[2 * j + 1])) for j in range(J))
        bound = int(rng.choice([2, 4, 30]))
        shifts = [int(x) for x in rng.integers(-bound, bound + 1, J)]
        if rng.random() < 0.4:
            shifts = [-abs(x) for x in shifts]
        change_points = tuple(int(rng.integers(s, e + 1)) for s, e in intervals)
        source_len = max(0, cols - sum(shifts) + int(rng.integers(-10, 11)))
        report = IntervalReport(intervals, tuple(shifts))
        assert_report_matches_references(report, rows, change_points, source_len)


def test_probe_shift_matches_old_probes():
    """Random windows, guard-hitting ones included (a < 1, b > len, length <= k).

    The deletion probe had no guard: the count loop only forms windows inside
    the row and longer than k, so only those are compared with it.
    """
    rng = np.random.default_rng(20234)
    for _ in range(4000):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 60))
        # low-entropy rows so that several shifts often match
        rowA = np.resize(rng.integers(0, 2, int(rng.integers(1, 5)), dtype=np.uint8), n)
        if rng.random() < 0.3:
            rowA = rng.integers(0, 2, n, dtype=np.uint8)
        x = int(rng.integers(-k, k + 1))
        rowB = np.roll(rowA, x)
        flips = rng.integers(0, n, int(rng.integers(0, 3)))
        rowB[flips] ^= 1
        a = int(rng.integers(-1, n + 1))
        b = int(rng.integers(a - 1, n + 2))
        got = probe_shift(rowA, rowB, a, b, range(-k, k + 1))
        assert got == reference_probe_shift(rowA, rowB, a, b, k), (k, a, b)
        if a >= 1 and b <= n and b - a + 1 > k:
            x_val, matches = reference_count_probe(rowA, rowB, a, b, k)
            assert probe_shift(rowA, rowB, a, b, range(k + 1)) == (x_val if matches == 1 else None)
