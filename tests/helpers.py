"""Independent oracles and simulator ground-truth checkers.

Everything here recomputes expectations from first principles (plain Python
strings/lists, naive scans) so the tests never share a code path with the
implementation they judge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rtcodec.bits import BitArray, as_bits, bits_from_int, column_agreement, int_from_bits, majority
from rtcodec.errors import HashRecoveryFailed, ReductionStuck, UnsupportedK
from rtcodec.hashing import ColoringHasher, VtHasher
from rtcodec.model import ReadMatrix
from rtcodec.params import CodeParams
from rtcodec.trace import Trace


def bits_str(bits) -> str:
    return "".join("1" if int(b) else "0" for b in bits)


# ---------------------------------------------------------------------------
# definitional channel replay


def oracle_delete(c: str, positions) -> str:
    drop = set(positions)
    return "".join(ch for i, ch in enumerate(c, start=1) if i not in drop)


def oracle_read_matrix(c: str, delta1, offsets) -> list[str]:
    return [oracle_delete(c, [p + off for p in delta1]) for off in offsets]


def oracle_edit_row(c: str, dels, ins_after: dict[int, str]) -> str:
    out = []
    if 0 in ins_after:
        out.append(ins_after[0])
    for pos in range(1, len(c) + 1):
        if pos not in dels:
            out.append(c[pos - 1])
        if pos in ins_after:
            out.append(ins_after[pos])
    return "".join(out)


def oracle_edit_matrix(c: str, delta1, gamma1, bits_rows, offsets) -> list[str]:
    rows = []
    for w, off in enumerate(offsets):
        dels = {p + off for p in delta1}
        ins = {p + off: bits_rows[w][j] for j, p in enumerate(gamma1)}
        rows.append(oracle_edit_row(c, dels, ins))
    return rows


def sample_deletions(rng, n: int, k: int, geometry):
    """A random admissible k-deletion pattern from the package's one sampler."""
    from rtcodec.model import DeletionPattern, sample_edit_pattern

    return DeletionPattern(sample_edit_pattern(rng, n, k, geometry, r=k, s=0).delta1)


def reference_sample_deletion_pattern(rng, n: int, k: int, geometry):
    """The k-deletion sampler before the edit sampler served both modes (verbatim)."""
    from rtcodec.errors import InadmissiblePattern
    from rtcodec.model import DeletionPattern, admissible_deletion_positions

    positions = admissible_deletion_positions(n, geometry)
    if len(positions) < k:
        raise InadmissiblePattern(f"track too short for {k} admissible deletions")
    return DeletionPattern(tuple(rng.sample(list(positions), k)))


def of_kind(trace, kind: str) -> list[dict]:
    """The fields of every ``kind`` event of ``trace``, in recording order."""
    return [fields for k, fields in trace.events if k == kind]


def oracle_longest_periodic_run(c: str, period: int) -> int:
    """Naive quadratic window scan."""
    n = len(c)
    best = 0
    for i in range(n):
        for j in range(i + period, n + 1):
            window = c[i:j]
            if all(window[x] == window[x + period] for x in range(len(window) - period)):
                best = max(best, j - i)
            else:
                break
    return max(best, min(period, n))


# ---------------------------------------------------------------------------
# edit-ball enumeration (normal form: deletions first, then insertions)


def one_deletions(s: str) -> set[str]:
    return {s[:i] + s[i + 1 :] for i in range(len(s))}


def one_insertions(s: str) -> set[str]:
    return {s[:i] + b + s[i:] for i in range(len(s) + 1) for b in "01"}


def edit_ball(s: str, k: int) -> set[str]:
    levels = {0: {s}}
    for r in range(1, k + 1):
        levels[r] = set()
        for x in levels[r - 1]:
            levels[r] |= one_deletions(x)
    total = set()
    for r in range(k + 1):
        layer = set(levels[r])
        total |= layer
        for _ in range(k - r):
            layer = set().union(*(one_insertions(x) for x in layer)) if layer else set()
            total |= layer
    return total


# ---------------------------------------------------------------------------
# deletion-sync ground truth


def source_index_maps(n: int, per_head_deletions: list[set[int]]) -> list[list[int]]:
    """For each head, kept source positions in read order."""
    return [[p for p in range(1, n + 1) if p not in dels] for dels in per_head_deletions]


def check_deletion_report(track_bits, pattern, params, matrix, report) -> None:
    """P1/P2/P3, count exactness, disjointness, and clean-column alignment."""
    g = params.geometry
    n, k = params.n, params.k
    N = len(track_bits)
    c = bits_str(track_bits)
    delta1 = pattern.delta1
    per_head = [{p + off for p in delta1} for off in g.offsets]
    src = report.source_intervals

    J = len(report.intervals)
    assert J <= k, f"J={J} exceeds k={k}"
    assert all(e1 < s2 for (_, e1), (s2, _) in zip(src, src[1:])), "source intervals overlap"

    # P2: every head's deletions covered
    for dels in per_head:
        for p in dels:
            assert any(s <= p <= e for s, e in src), f"deletion {p} outside intervals"

    for (rs, re), (s, e), shift in zip(report.intervals, src, report.shifts):
        cnt = -shift
        inside = [p for p in delta1 if s <= p <= e]
        assert len(inside) == cnt, f"count {cnt} != truth {len(inside)} in [{s},{e}]"
        # deletion isolation
        for w in range(1, g.d):
            off = g.distances[w - 1]
            lhs = sorted(p for p in per_head[w] if s <= p <= e)
            rhs = sorted(p + off for p in per_head[w - 1] if s <= p <= e)
            assert lhs == rhs, f"interval [{s},{e}] not deletion isolated at head {w + 1}"
        # P1: read segment is the per-head read of the source segment
        for w in range(g.d):
            seg = "".join(c[p - 1] for p in range(s, e + 1) if p not in per_head[w])
            assert bits_str(matrix.rows[w][rs - 1 : re]) == seg, f"P1 fails at head {w + 1}"
        # P3
        if rs <= n + 1:
            assert min(re, n + 1) - rs + 1 <= params.block_len - k, "P3 bound violated"

    # clean columns align to one undeleted source bit across heads
    maps = source_index_maps(N, per_head)
    covered = np.zeros(matrix.cols + 1, dtype=bool)
    for rs, re in report.intervals:
        covered[rs : re + 1] = True
    for m in range(1, matrix.cols + 1):
        if covered[m]:
            continue
        sources = {maps[w][m - 1] for w in range(g.d)}
        assert len(sources) == 1, f"clean column {m} maps to several source bits"
        p = sources.pop()
        assert all(p not in dels for dels in per_head), f"clean column {m} hides a deletion"


# ---------------------------------------------------------------------------
# edit ground truth


def edit_clusters(delta1, gamma1, d: int, t: int) -> list[dict]:
    """Minimal edit-isolated clusters: merge overlapping per-event head spans."""
    events = sorted([(p, "del") for p in delta1] + [(p, "ins") for p in gamma1])
    span = (d - 1) * t
    clusters: list[dict] = []
    for pos, kind in events:
        if clusters and pos <= clusters[-1]["hi"]:
            clusters[-1]["hi"] = max(clusters[-1]["hi"], pos + span)
            clusters[-1]["events"].append((pos, kind))
        else:
            clusters.append({"lo": pos, "hi": pos + span, "events": [(pos, kind)]})
    for cl in clusters:
        cl["net"] = sum(1 if kind == "ins" else -1 for _, kind in cl["events"])
        cl["count"] = len(cl["events"])
    return clusters


def head1_image_column(p: int, delta1, gamma1) -> int:
    """Column where source bit p lands in head 1 (before any in-flight edits)."""
    shift = sum(1 for q in gamma1 if q < p) - sum(1 for q in delta1 if q < p)
    return p + shift


def cluster_interval_assignment(clusters, intervals, delta1, gamma1) -> dict[int, list[int]]:
    """Map interval index -> cluster indices whose head-1 image lies inside it."""
    out: dict[int, list[int]] = {j: [] for j in range(len(intervals))}
    for ci, cl in enumerate(clusters):
        col_lo = head1_image_column(cl["lo"], delta1, gamma1) - 1
        col_hi = head1_image_column(cl["hi"], delta1, gamma1) + 1
        homes = [
            j
            for j, (b1, b2) in enumerate(intervals)
            if not (col_hi < b1 or col_lo > b2)
        ]
        for j in homes:
            out[j].append(ci)
    return out


# ---------------------------------------------------------------------------
# reference encode-side implementations (the original per-position loops),
# kept as byte-identity oracles for the vectorised versions


def reference_cap_periods(bits, k: int) -> np.ndarray:
    """Period capping by a window-at-a-time scan that restarts at 0 after every excision."""
    from rtcodec.bits import as_bits, bits_from_int, ceil_log2

    def smallest_period_at(c, start, w, k):
        win = c[start : start + w]
        for p in range(1, k + 1):
            if np.array_equal(win[p:], win[:-p]):
                return p
        return None

    c = as_bits(bits)
    n = len(c)
    if k < 1:
        raise ValueError("k must be >= 1")
    width = ceil_log2(n)
    w = 2 * k + ceil_log2(n) + 2
    f = np.concatenate([c, np.ones(k, dtype=np.uint8), np.zeros(1, dtype=np.uint8)])
    n_live = n
    i = 0
    while i + w <= n_live:
        p_min = smallest_period_at(f, i, w, k)
        if p_min is None:
            i += 1
            continue
        prefix = f[i : i + p_min].copy()
        block = np.concatenate(
            [
                np.ones(k - p_min, dtype=np.uint8),
                np.zeros(1, dtype=np.uint8),
                prefix,
                bits_from_int(i + 1, width),
                np.zeros(k + 1, dtype=np.uint8),
            ]
        )
        f = np.concatenate([f[:i], f[i + w :], block])
        n_live -= w
        i = 0
    return f


def reference_format_track(bits) -> str:
    """Hex track format, one nibble at a time."""
    n = len(bits)
    digits = []
    for i in range(0, n, 4):
        chunk = bits[i : i + 4]
        v = 0
        for j in range(4):
            v = (v << 1) | (int(chunk[j]) if j < len(chunk) else 0)
        digits.append("0123456789abcdef"[v])
    return f"len={n}\n{''.join(digits)}\n"


def reference_parse_track(text: str) -> np.ndarray:
    """Hex or ASCII track parse, one nibble at a time."""
    from rtcodec.bits import as_bits

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty track file")
    if lines[0].startswith("len="):
        try:
            n = int(lines[0][4:])
        except ValueError as e:
            raise ValueError(f"bad length header: {lines[0]!r}") from e
        hexstr = "".join(lines[1:])
        if len(hexstr) != (n + 3) // 4:
            raise ValueError(f"hex payload has {len(hexstr)} digits, expected {(n + 3) // 4}")
        out = np.zeros(4 * len(hexstr), dtype=np.uint8)
        for i, ch in enumerate(hexstr):
            v = int(ch, 16)
            out[4 * i : 4 * i + 4] = [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1]
        if out[n:].any():
            raise ValueError("nonzero padding bits after declared length")
        return out[:n]
    payload = "".join(lines)
    if set(payload) - {"0", "1"}:
        raise ValueError("ASCII track may contain only 0/1")
    return as_bits(payload)


def reference_parity_groups_rs(block_groups, parity_groups: int, group_symbols: int, width: int):
    """Lane-wise systematic RS parity, one scalar polynomial division per lane."""
    from rtcodec.gf import GF

    gf = GF.get(width)

    def poly_divmod(dividend, divisor):
        out = list(dividend)
        lead_inv = gf.inv(divisor[0])
        for i in range(len(dividend) - len(divisor) + 1):
            coef = out[i] = gf.mul(out[i], lead_inv)
            if coef != 0:
                for j in range(1, len(divisor)):
                    out[i + j] ^= gf.mul(divisor[j], coef)
        sep = len(dividend) - len(divisor) + 1
        return out[:sep], out[sep:]

    def rs_parity(symbols, redundancy):
        if redundancy == 0:
            return []
        gen = [1]
        for i in range(redundancy):
            gen = gf.poly_mul(gen, [1, gf.exp[i]])
        _, rem = poly_divmod(list(symbols) + [0] * redundancy, gen)
        return [0] * (redundancy - len(rem)) + rem

    lanes = [rs_parity([grp[lane] for grp in block_groups], parity_groups) for lane in range(group_symbols)]
    return [[lanes[lane][j] for lane in range(group_symbols)] for j in range(parity_groups)]


def reference_agreement_run_starts(equal) -> np.ndarray:
    """For each index i, the length of the True-run of ``equal`` starting at i."""
    n = len(equal)
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] + 1 if equal[i] else 0
    return out[:n]


def reference_edit_distance(a, b) -> int:
    """Insert/delete edit distance by the full O(len(a) * len(b)) table."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j], cur[j - 1])
        prev = cur
    return prev[m]


def reference_oddeven_parity(symbols) -> tuple[int, int]:
    """(xor of 1-based odd positions, xor of even positions) over GF(2^w)."""
    p_odd = p_even = 0
    for i, s in enumerate(symbols):
        if i % 2 == 0:
            p_odd ^= int(s)
        else:
            p_even ^= int(s)
    return p_odd, p_even


# ---------------------------------------------------------------------------
# reference repetition decoders: the run parse as a loop over runs, the
# decoder before its skip parse, and the numpy DP, kept as oracles for the
# vectorised parse and the plain DP


def reference_rep_run_parse(y, fold: int):
    """Deletion-only parse: round each run up to whole symbols; None if over budget."""
    from math import ceil

    from rtcodec.bits import as_bits

    if len(y) == 0:
        return as_bits([]), 0
    changes = np.flatnonzero(np.diff(y)) + 1
    bounds = np.concatenate(([0], changes, [len(y)]))
    msg, deficit = [], 0
    for i in range(len(bounds) - 1):
        length = int(bounds[i + 1] - bounds[i])
        copies = ceil(length / fold)
        deficit += copies * fold - length
        msg.extend([int(y[bounds[i]])] * copies)
    if deficit > fold - 1:
        return None
    return np.array(msg, dtype=np.uint8), deficit


def reference_rep_decode_unskipped(y, fold: int, msg_len: int, trace: Trace | None = None) -> BitArray:
    """``rep_decode`` before it tried the parses past a longer word's extra
    leading bits, kept verbatim: both run parses of the whole word, then the DP."""
    from rtcodec.algebra import _rep_decode_dp, _rep_run_parse

    y = as_bits(y)
    boundary = np.ones(len(y) + 1, dtype=bool)  # where a run starts or y ends
    boundary[1:-1] = y[1:] != y[:-1]
    edges = np.flatnonzero(boundary)
    values, lengths = y[edges[:-1]], np.diff(edges)
    for bias, path in ((fold - 1, "rep.parse_up"), (fold // 2, "rep.parse_nearest")):
        parsed, edits = _rep_run_parse(values, lengths, fold, bias)
        if edits < fold and len(parsed) == msg_len:
            if trace is not None:
                trace.counters[path] += 1
            return parsed
    if trace is not None:
        trace.counters["rep.dp"] += 1
    return _rep_decode_dp(y, fold, msg_len)


def reference_rep_decode_dp(y, fold: int, msg_len: int) -> np.ndarray:
    """Banded repetition DP with numpy over all drift pairs of one symbol at a time."""
    from rtcodec.errors import MalformedRepetition

    budget = fold - 1
    drift = len(y) - fold * msg_len
    if abs(drift) > budget:
        raise MalformedRepetition(f"length drift {drift} exceeds budget {budget}")
    ones = np.concatenate(([0], np.cumsum(y, dtype=np.int64)))
    width = 2 * budget + 1
    sigmas = np.arange(-budget, budget + 1)
    INF = np.int64(1 << 30)
    cost = np.full(width, INF, dtype=np.int64)
    cost[budget] = 0
    parent_sigma = np.zeros((msg_len, width), dtype=np.int8)
    parent_bit = np.zeros((msg_len, width), dtype=np.int8)
    for i in range(msg_len):
        starts = fold * i + sigmas
        ends = fold * (i + 1) + sigmas
        ok_start = (starts >= 0) & (starts <= len(y))
        ok_end = (ends >= 0) & (ends <= len(y))
        s_clip = np.clip(starts, 0, len(y))
        e_clip = np.clip(ends, 0, len(y))
        span = e_clip[None, :] - s_clip[:, None]
        n1 = ones[e_clip][None, :] - ones[s_clip][:, None]
        n0 = span - n1
        valid = ok_start[:, None] & ok_end[None, :] & (span >= 0)
        base = fold + span
        cost1 = np.where(valid, base - 2 * np.minimum(fold, n1), INF)
        cost0 = np.where(valid, base - 2 * np.minimum(fold, n0), INF)
        tot1 = cost[:, None] + cost1
        tot0 = cost[:, None] + cost0
        best1, arg1 = tot1.min(axis=0), tot1.argmin(axis=0)
        best0, arg0 = tot0.min(axis=0), tot0.argmin(axis=0)
        take1 = best1 <= best0
        cost = np.where(take1, best1, best0)
        parent_bit[i] = take1.astype(np.int8)
        parent_sigma[i] = np.where(take1, arg1, arg0).astype(np.int8)
    end_state = budget + drift
    if cost[end_state] > budget:
        raise MalformedRepetition("no parse within the edit budget")
    out = np.zeros(msg_len, dtype=np.uint8)
    state = end_state
    for i in range(msg_len - 1, -1, -1):
        out[i] = parent_bit[i][state]
        state = int(parent_sigma[i][state])
    return out


# ---------------------------------------------------------------------------
# the outer codes on a single lane, in the shape of one symbol string


def one_lane_layout(width: int = 8):
    """A layout whose block groups are single w-bit symbols, with two parity groups."""
    from rtcodec.layout import Layout

    return Layout(
        n=1, k=1, f_len=1, block_len=2, blocks=(), hash_bits=width,
        group_symbols=1, symbol_bits=width, parity_groups=2,
    )


def rs_codeword(msg, redundancy: int, width: int = 8) -> list[int]:
    """msg followed by its systematic RS parity (one lane of ``rs_parity_lanes``)."""
    from rtcodec.algebra import rs_parity_lanes

    parity = rs_parity_lanes(np.array(msg, dtype=np.int64).reshape(-1, 1), redundancy, width)
    return [int(s) for s in msg] + parity[:, 0].tolist()


def erase(cw, positions) -> list[int]:
    """cw with the symbols at ``positions`` zeroed."""
    return [0 if i in positions else s for i, s in enumerate(cw)]


def pair_parity(symbols) -> tuple[int, int]:
    """Odd/even parity of a symbol string through ``parity_groups_pair``."""
    from rtcodec.layout import parity_groups_pair

    odd, even = parity_groups_pair([[s] for s in symbols], one_lane_layout())
    return odd[0], even[0]


def pair_restore(word, parity: tuple[int, int]) -> list[int]:
    """Fill the None symbols of ``word`` through ``restore_pair``."""
    from rtcodec.layout import restore_pair

    groups = [None if s is None else [s] for s in word]
    return [grp[0] for grp in restore_pair(groups, [[parity[0]], [parity[1]]], one_lane_layout())]


def reference_restore_rs(block_groups, parity, layout, max_errors: int = 0):
    """``layout.restore_rs`` before the lanes were batched: one scalar decode per lane."""
    from rtcodec.algebra import rs_decode_errors_erasures
    from rtcodec.errors import ParityMismatch

    r = layout.parity_groups
    erased = [i for i, grp in enumerate(block_groups) if grp is None]
    corrected: set[int] = set()
    out = [list(grp) if grp is not None else [0] * layout.group_symbols for grp in block_groups]
    for lane in range(layout.group_symbols):
        symbols = [grp[lane] for grp in out] + [parity[j][lane] for j in range(r)]
        fixed = rs_decode_errors_erasures(symbols, erased, r, layout.symbol_bits)
        for i, grp in enumerate(out):
            if fixed[i] != grp[lane]:
                corrected.add(i)
                grp[lane] = fixed[i]
    corrected.difference_update(erased)
    if len(corrected) > max_errors:
        raise ParityMismatch(f"{len(corrected)} substituted blocks exceed budget {max_errors}")
    return out, sorted(corrected)


# ---------------------------------------------------------------------------
# the two read-synchronization reports before they merged into
# ``bits.IntervalReport`` (deletion counts with a prefix-count fill, edit
# shifts with change points and a per-column fill), kept verbatim as oracles
# (``REFERENCE_UNKNOWN`` stands for ``bits.UNKNOWN``)

REFERENCE_UNKNOWN = np.uint8(2)


@dataclass(frozen=True)
class ReferenceDeletionReport:
    """Read-side intervals, per-interval deletion counts, derived source intervals."""

    read_intervals: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]

    @property
    def source_intervals(self) -> tuple[tuple[int, int], ...]:
        """Source interval j is the read interval shifted by the deletions before/through it."""
        out = []
        before = 0
        for (s, e), c in zip(self.read_intervals, self.counts):
            out.append((s + before, e + before + c))
            before += c
        return tuple(out)


def reference_align_and_recover_clean_bits(D, report: ReferenceDeletionReport, source_len: int) -> np.ndarray:
    """Fill source positions outside all intervals from row 1; UNKNOWN elsewhere.

    Source position p outside the intervals appears in row 1 at column
    p - (deletions in intervals entirely before p).
    """
    row1 = D.rows[0]
    out = np.full(source_len, REFERENCE_UNKNOWN, dtype=np.uint8)
    cursor = 1  # next source position to fill
    before = 0
    for (s, e), c in zip(report.source_intervals, report.counts):
        lo, hi = cursor, min(s - 1, source_len)
        if lo <= hi:
            out[lo - 1 : hi] = row1[lo - 1 - before : hi - before]
        cursor = e + 1
        before += c
        if cursor > source_len:
            break
    if cursor <= source_len:
        hi = min(source_len, len(row1) + before)
        if cursor <= hi:
            out[cursor - 1 : hi] = row1[cursor - 1 - before : hi - before]
    return out


def reference_count_probe(row1, row2, p: int, q: int, k: int) -> tuple[int | None, int]:
    """The shift probe of one deletion-count window: (last matching x, matches)."""
    x_val, matches = None, 0
    for x in range(0, k + 1):
        if np.array_equal(row1[p - 1 : q - x], row2[p - 1 + x : q]):
            matches += 1
            x_val = x
    return x_val, matches


@dataclass(frozen=True)
class ReferenceEditReport:
    """Read-side intervals with their net shifts and change points."""

    intervals: tuple[tuple[int, int], ...]
    shifts: tuple[int, ...]
    change_points: tuple[int, ...]

    @property
    def J(self) -> int:
        return len(self.intervals)

    def source_start(self, j: int) -> int:
        """Source position of read column b1j (shifts of earlier intervals undone)."""
        b1 = self.intervals[j][0]
        return b1 - sum(s for q, s in zip(self.change_points[:j], self.shifts[:j]) if q < b1)


def reference_source_end(src_start: int, b1: int, b2: int, s_j: int) -> int:
    """End of the source span behind read interval [b1, b2] with net shift s_j."""
    return src_start + (b2 - b1 + 1 - s_j) - 1


def reference_change_points(rows, intervals) -> tuple[int, ...]:
    """Per interval, its last disagreeing column (its start when all rows agree)."""
    agree = (rows == rows[0]).all(axis=0)
    qs = []
    for b1, b2 in intervals:
        disagree = np.flatnonzero(~agree[b1 - 1 : b2])
        if len(disagree) == 0:
            qs.append(b1)
            continue
        qs.append(b1 + int(disagree[-1]))
    return tuple(qs)


def reference_probe_shift(rowA, rowB, a: int, b: int, k: int) -> int | None:
    """Unique x with rowA[a, b-x] == rowB[a+x, b] (x >= 0) or the mirrored form.

    1-based inclusive window [a, b]; None when no x or several x match.
    """
    if a < 1 or b > len(rowA) or b - a + 1 <= k:
        return None
    found = None
    for x in range(0, k + 1):
        if np.array_equal(rowA[a - 1 : b - x], rowB[a - 1 + x : b]):
            if found is not None:
                return None
            found = x
    for x in range(1, k + 1):
        if np.array_equal(rowA[a - 1 + x : b], rowB[a - 1 : b - x]):
            if found is not None:
                return None
            found = -x
    return found


def reference_recover_outside_bits(E, report: ReferenceEditReport, source_len: int) -> np.ndarray:
    """Fill source positions whose row-1 image avoids all intervals.

    A column i past change point q_j was displaced by net shift s_j, so it
    shows source position i - sum of earlier shifts. Positions inside
    undetectable error clusters may be wrong; the caller's outer code absorbs
    those as block substitutions.
    """
    est = np.full(source_len, REFERENCE_UNKNOWN, dtype=np.uint8)
    row1 = E.rows[0]
    order = sorted(range(report.J), key=lambda j: report.change_points[j])
    cuts = np.array([report.change_points[j] for j in order], dtype=np.int64)
    shift_cum = np.concatenate(([0], np.cumsum([report.shifts[j] for j in order])))
    inside = np.zeros(len(row1), dtype=bool)
    for s, e in report.intervals:
        inside[s - 1 : e] = True
    columns = np.arange(1, len(row1) + 1)
    back = shift_cum[np.searchsorted(cuts, columns, side="left")]
    source_pos = columns - back
    ok = ~inside & (source_pos >= 1) & (source_pos <= source_len)
    est[source_pos[ok] - 1] = row1[ok]
    return est


# ---------------------------------------------------------------------------
# block-hash recovery as two searches, kept verbatim as the reference for the
# one shared search: VT's recover with its two single-edit scans, and
# coloring's table, recover and (length, value) enumeration


class ReferenceVtHasher(VtHasher):
    def _check_k(self, k: int) -> None:
        if k != 1:
            raise UnsupportedK(f"vt hasher corrects exactly one error, got k={k}")

    def recover(self, window, h, m: int, k: int) -> BitArray:
        self._check_k(k)
        y = as_bits(window)
        syndrome = int_from_bits(h[:-1])
        parity = int(h[-1])
        if len(y) == m:
            out = y
        elif len(y) == m - 1:
            out = self._insert_one(y, m, syndrome)
        elif len(y) == m + 1:
            out = self._delete_one(y, m, syndrome, parity)
        else:
            raise HashRecoveryFailed(f"window length {len(y)} incompatible with one edit on {m} bits")
        if out is None:
            raise HashRecoveryFailed("no sequence matches the syndrome")
        if int(out.sum() % 2) != parity or int(np.dot(np.arange(1, m + 1), out) % (m + 1)) != syndrome:
            raise HashRecoveryFailed("recovered sequence fails the syndrome check")
        return out

    @staticmethod
    def _insert_one(y: BitArray, m: int, syndrome: int) -> BitArray | None:
        """Classical single-deletion correction by weight bookkeeping."""
        deficit = (syndrome - int(np.dot(np.arange(1, m), y))) % (m + 1)
        weight = int(y.sum())
        out = np.empty(m, dtype=np.uint8)
        if deficit <= weight:
            # deleted bit was 0; ones to its right sum to the deficit
            ones_right = 0
            pos = len(y)
            while pos > 0 and ones_right < deficit:
                pos -= 1
                ones_right += int(y[pos])
            if ones_right != deficit:
                return None
            out[:pos] = y[:pos]
            out[pos] = 0
            out[pos + 1 :] = y[pos:]
        else:
            # deleted bit was 1; zeros to its left make up deficit - weight - 1
            zeros_needed = deficit - weight - 1
            zeros = 0
            pos = 0
            while pos < len(y) and zeros < zeros_needed:
                zeros += 1 - int(y[pos])
                pos += 1
            if zeros != zeros_needed:
                return None
            while pos < len(y) and y[pos] == 1:
                pos += 1
            out[:pos] = y[:pos]
            out[pos] = 1
            out[pos + 1 :] = y[pos:]
        return out

    @staticmethod
    def _delete_one(y: BitArray, m: int, syndrome: int, parity: int) -> BitArray | None:
        """One inserted bit: scan removals, dedupe by content via run structure."""
        seen_start = -1
        for pos in range(m + 1):
            if pos > 0 and y[pos] == y[pos - 1]:
                continue  # removing either end of a run gives the same sequence
            cand = np.delete(y, pos)
            if int(cand.sum() % 2) == parity and int(np.dot(np.arange(1, m + 1), cand) % (m + 1)) == syndrome:
                if seen_start >= 0 and not np.array_equal(cand, np.delete(y, seen_start)):
                    return None
                if seen_start < 0:
                    seen_start = pos
        return np.delete(y, seen_start) if seen_start >= 0 else None


class ReferenceColoringHasher(ColoringHasher):
    @staticmethod
    def _subsequences(value: int, m: int, k: int) -> set[tuple[int, int]]:
        """All (length, value) results of k deletions from an m-bit value."""
        level = {(m, value)}
        for _ in range(k):
            nxt = set()
            for length, v in level:
                for pos in range(length):
                    keep_high = (v >> (length - pos)) << (length - 1 - pos)
                    keep_low = v & ((1 << (length - 1 - pos)) - 1)
                    nxt.add((length - 1, keep_high | keep_low))
            level = nxt
        return level

    def _table(self, m: int, k: int) -> tuple[list[int], int]:
        key = (m, k)
        if key not in self._tables:
            buckets: dict[tuple[int, int], list[int]] = {}
            for v in range(1 << m):
                for sub in self._subsequences(v, m, k):
                    buckets.setdefault(sub, []).append(v)
            colors = [-1] * (1 << m)
            for v in range(1 << m):
                used = set()
                for sub in self._subsequences(v, m, k):
                    for u in buckets[sub]:
                        if u != v and colors[u] >= 0:
                            used.add(colors[u])
                c = 0
                while c in used:
                    c += 1
                colors[v] = c
            n_colors = max(colors) + 1
            self._tables[key] = (colors, n_colors)
        return self._tables[key]

    def recover(self, window, h, m: int, k: int) -> BitArray:
        self._check(m, k)
        y = as_bits(window)
        target = int_from_bits(as_bits(h))
        colors, _ = self._table(m, k)
        matches: set[int] = set()
        for cand in self._edit_completions(y, m, k):
            if colors[cand] == target:
                matches.add(cand)
        if len(matches) != 1:
            raise HashRecoveryFailed(f"{len(matches)} candidates share the declared color")
        return bits_from_int(matches.pop(), m)

    @classmethod
    def _edit_completions(cls, y: BitArray, m: int, k: int) -> set[int]:
        """All m-bit values that can yield window y under r deletions + s insertions, r+s <= k."""
        y_int = int_from_bits(y) if len(y) else 0
        L = len(y)
        out: set[int] = set()
        for s in range(k + 1):
            r = m - L + s
            if r < 0 or r + s > k or s > L:
                continue
            for length, v in cls._subsequences(y_int, L, s):
                grown = {(length, v)}
                for _ in range(r):
                    nxt = set()
                    for ln, w in grown:
                        for pos in range(ln + 1):
                            hi = (w >> (ln - pos)) << (ln - pos + 1)
                            lo = w & ((1 << (ln - pos)) - 1)
                            for b in (0, 1):
                                nxt.add((ln + 1, hi | (b << (ln - pos)) | lo))
                    grown = nxt
                out.update(v2 for ln2, v2 in grown if ln2 == m)
        return out


# ---------------------------------------------------------------------------
# the one-window shift probe and its three callers before the shift table
# (``bits.shift_table``) served them, kept verbatim as oracles: the probe
# loop, the net-shift vote, the deletion-count vote and head reduction


def reference_probe_shift_loop(rowA: BitArray, rowB: BitArray, a: int, b: int, shifts) -> int | None:
    """The unique x in ``shifts`` with rowA[a, b-x] == rowB[a+x, b].

    1-based inclusive window [a, b]; a negative x compares rowA[a-x, b] with
    rowB[a, b+x]. None when the window leaves rowA or is no longer than the
    largest shift, and when no x or several x match.
    """
    if a < 1 or b > len(rowA) or b - a + 1 <= max(map(abs, shifts)):
        return None
    found = None
    for x in shifts:
        lo, hi = max(x, 0), max(-x, 0)
        if np.array_equal(rowA[a - 1 + hi : b - lo], rowB[a - 1 + lo : b - hi]):
            if found is not None:
                return None
            found = x
    return found


def reference_net_shift_of_interval(E: ReadMatrix, interval: tuple[int, int], params: CodeParams) -> int:
    """Insertions minus deletions inside the interval's source region.

    Probes ride windows strided one head distance apart in 4k+1 residue
    classes; within a residue each probe is the inter-row shift accumulated so
    far, the per-residue sums telescope to deletions-minus-insertions, and the
    majority vote flips sign on return.
    """
    b1, b2 = interval
    row1, row2 = E.rows[0], E.rows[1]
    if column_agreement(E.rows)[b1 - 1 : b2].all():
        return 0
    k, T = params.k, params.T
    t = params.geometry.distances[0]
    stride = T + 4 * k + 1
    sums: dict[int, int] = {}
    sentinel = k + 1
    for m in range(1, 4 * k + 2):
        total = 0
        for i in range(1, (b2 - b1 + 1) // t + 3):
            q_im = b1 + (i - 1) * t + (m - 1) * stride
            if q_im - 1 > b2:
                break
            a = q_im + stride + k  # probe window sits one stride later, shrunk by k
            b = q_im + 2 * stride - k - 1
            if b <= len(row1):
                x = reference_probe_shift_loop(row1, row2, a, b, range(-k, k + 1))
                total += x if x is not None else sentinel
        sums[m] = total
    return -majority(sums.values(), "net-shift")


def reference_count_deletions_in_interval(
    D: ReadMatrix,
    interval: tuple[int, int],
    params: CodeParams,
    trace: Trace | None = None,
) -> int:
    """Deletions of head 1 inside the source interval behind a read interval.

    Only the first two reads are used. Windows of length T+k+1 tile the
    interval with stride t1 in 4k+1 residue classes; each window yields the
    row-1/row-2 shift accumulated up to it, the per-residue sums telescope to
    the count, and the majority over residues wins. ``trace`` counts
    ``count.fallbacks`` (windows that matched no shift or several, read as 0)
    and receives one ``count_vote`` event with the per-residue sums.
    """
    if trace is None:
        trace = Trace()
    b_min, b_max = interval
    row1, row2 = D.rows[0], D.rows[1]
    k, T = params.k, params.T
    t1 = params.geometry.distances[0]
    stride = T + 2 * k + 1
    win = T + k + 1
    sums: dict[int, int] = {m: 0 for m in range(1, 4 * k + 2)}
    length = b_max - b_min + 1
    for i in range(1, (length + t1 - 1) // t1 + 1):
        for m in range(1, 4 * k + 2):
            p = b_min + (i - 1) * t1 + (m - 1) * stride
            q = p + win - 1  # untruncated end; window in the probe set only if it fits
            if q > b_max:
                continue
            x_val = reference_probe_shift_loop(row1, row2, p, q, range(k + 1))
            if x_val is None:
                x_val = 0
                trace.counters["count.fallbacks"] += 1
            sums[m] += x_val
    trace.event("count_vote", interval=interval, sums=list(sums.values()))
    return majority(sums.values(), "count")


def reference_head_reduction_recover(
    segments: list[BitArray], params: CodeParams, trace: Trace | None = None
) -> tuple[BitArray, int]:
    """Iteratively merge heads until all remaining rows agree.

    Returns (e, d_star): the surviving row and how many rows were left. When
    the segment's error count is below the original head count, e equals the
    source segment (flanks included). ``trace`` receives one
    ``reduction_step`` event per pass that removed a row.
    """
    if trace is None:
        trace = Trace()
    k, T = params.k, params.T
    t = params.geometry.distances[0]
    step_len = T + 3 * k + 1
    n_probe_right = (k * k + 3) // 4 + 3 * k
    rows = [np.asarray(seg, dtype=np.uint8) for seg in segments]
    while True:
        d_cur = len(rows)
        m_cur = len(rows[0])
        stacked = np.stack(rows)
        disagree = np.flatnonzero(~column_agreement(stacked))
        if len(disagree) == 0:
            return rows[0].copy(), d_cur
        i_star = int(disagree[0]) + 1
        col = stacked[:, i_star - 1]
        ones = int(col.sum())
        zeros = d_cur - ones
        tie = ones == zeros
        if tie:
            w_star = 1
        else:
            minority = 1 if ones < zeros else 0
            w_star = int(np.flatnonzero(col == minority)[0]) + 1
        if w_star <= d_cur - 1:
            direction = "right"
            n_probe = n_probe_right

            def window(w: int, ell: int) -> tuple[int, int]:
                v = i_star + 2 * k + (ell - 1) * step_len + (w - w_star) * t
                return v, v + step_len - 1
        else:
            direction = "left"
            n_probe = n_probe_right + 2

            def window(w: int, ell: int) -> tuple[int, int]:
                v = i_star - T - 3 * k - ell * step_len + (w - w_star) * t
                return v, v + step_len - 1

        sentinel = k + 1
        x = [[sentinel] * (n_probe + 1) for _ in range(d_cur - 1)]
        for w in range(1, d_cur):
            for ell in range(1, n_probe + 1):
                a, b = window(w, ell)
                got = reference_probe_shift_loop(rows[w - 1], rows[w], a, b, range(-k, k + 1))
                x[w - 1][ell] = got if got is not None else sentinel
        z = [0] * (n_probe + 1)
        for ell in range(1, n_probe + 1):
            flag = 0
            for w in range(d_cur - 1):
                prev = x[w][ell - 1] if ell > 1 else x[w][1]
                cur = x[w][ell]
                if cur == sentinel:
                    flag = 1
                elif prev != sentinel and cur != prev:
                    flag = 1
            z[ell] = flag
        n_one_runs = sum(1 for ell in range(1, n_probe + 1) if z[ell] == 1 and (ell == 1 or z[ell - 1] == 0))
        need = k - n_one_runs + 2
        run_start = None
        streak = 0
        for ell in range(1, n_probe + 1):
            streak = streak + 1 if z[ell] == 0 else 0
            if streak >= need:
                run_start = ell - need  # z[run_start+1 .. run_start+need] all zero
                break
        if run_start is None:
            raise ReductionStuck(f"no zero run of length {need} among {n_probe} probes")
        cuts = [x[w - 1][run_start + 1] for w in range(1, d_cur)]
        if any(c == sentinel for c in cuts):
            raise ReductionStuck("probe at the chosen run is undefined")
        if len(set(cuts)) != 1:
            raise ReductionStuck(f"inconsistent cut shifts {cuts}")
        new_rows = []
        for w in range(1, d_cur):
            cut = window(w, run_start + 1)[0] + k  # k columns into the run's first window
            shift = cuts[w - 1]
            if not (0 <= cut <= m_cur and 0 <= cut - shift <= m_cur):
                raise ReductionStuck(f"cut column {cut} outside the segment")
            new_rows.append(np.concatenate([rows[w][:cut], rows[w - 1][cut - shift :]]))
        if len({len(r) for r in new_rows}) != 1:
            raise ReductionStuck("spliced rows disagree in length")
        trace.event(
            "reduction_step",
            i_star=i_star,
            w_star=w_star,
            minority_tie=tie,
            direction=direction,
            run_start=run_start,
            one_runs=n_one_runs,
            cut_shift=cuts[0],
        )
        rows = new_rows
