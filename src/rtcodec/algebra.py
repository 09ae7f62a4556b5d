"""Classical sub-codes: systematic Reed-Solomon (lane-parallel parity, an
errors-and-erasures decoder, and its lane-batched form for lanes that share
their erasures) and the (k+1)-fold repetition code with an exact
mixed-edit decoder. The odd/even pair parity runs lane-wise in ``layout``.

Field elements are plain ints inside GF(2^w).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .bits import BitArray, as_bits
from .errors import DecodeFailure, FieldTooSmall, MalformedRepetition, TooManyErasures
from .gf import GF
from .trace import Trace


# ---------------------------------------------------------------------------
# Reed-Solomon


@lru_cache(maxsize=None)
def rs_generator_poly(width: int, redundancy: int) -> tuple[int, ...]:
    """prod_{i<redundancy} (x - alpha^i) over GF(2^width), highest degree first."""
    gf = GF.get(width)
    g = [1]
    for i in range(redundancy):
        g = gf.poly_mul(g, [1, gf.exp[i]])
    return tuple(g)


def rs_parity_lanes(messages: np.ndarray, redundancy: int, width: int = 8) -> np.ndarray:
    """Systematic RS parity of every column of ``messages`` (shape (length, lanes)).

    Returns shape (redundancy, lanes): column j is the remainder of message
    column j (followed by ``redundancy`` zeros) divided by the generator. The
    division runs as an LFSR over all lanes at once, one message symbol per step.
    """
    gf = GF.get(width)
    length, lanes = messages.shape
    if length + redundancy > gf.charac:
        raise FieldTooSmall(f"{length}+{redundancy} symbols exceed GF(2^{width}) code length")
    if messages.size and (messages.min() < 0 or messages.max() >= gf.order):
        raise ValueError("symbol out of field range")
    rem = np.zeros((lanes, redundancy), dtype=np.int64)
    if redundancy == 0:
        return rem.T
    gen = np.array(rs_generator_poly(width, redundancy)[1:], dtype=np.int64)
    for symbols in messages:
        coef = symbols ^ rem[:, 0]
        rem[:, :-1] = rem[:, 1:]
        rem[:, -1] = 0
        rem ^= gf.mul_array(coef[:, None], gen)
    return rem.T


def _syndromes(gf: GF, cw: list[int], redundancy: int) -> list[int]:
    return [gf.poly_eval(cw, gf.exp[j]) for j in range(redundancy)]


def _berlekamp_massey(gf: GF, synd: list[int]) -> tuple[list[int], int]:
    """Minimal LFSR (ascending coefficients, sigma[0]=1) for the syndrome sequence."""
    sigma, prev = [1], [1]
    L, m, b = 0, 1, 1
    for n, s in enumerate(synd):
        d = s
        for i in range(1, L + 1):
            d ^= gf.mul(sigma[i], synd[n - i])
        if d == 0:
            m += 1
            continue
        coef = gf.div(d, b)
        if len(prev) + m > len(sigma):
            sigma = sigma + [0] * (len(prev) + m - len(sigma))
        promote = 2 * L <= n
        old = list(sigma) if promote else None
        for i, pc in enumerate(prev):
            sigma[i + m] ^= gf.mul(coef, pc)
        if promote:
            L, prev, b, m = n + 1 - L, old, d, 1
        else:
            m += 1
    return sigma, L


def rs_decode_errors_erasures(
    symbols: list[int], erasures: list[int], redundancy: int, width: int = 8
) -> list[int]:
    """Correct the symbols at the ``erasures`` positions plus unknown-position errors.

    ``symbols`` is a whole codeword (message, then parity); the values at the
    erased positions are ignored. Guaranteed exact when 2*errors + erasures <=
    redundancy; raises TooManyErasures past the parity and DecodeFailure
    otherwise (never silently wrong inside the guarantee region). Returns the
    full corrected codeword.
    """
    gf = GF.get(width)
    n = len(symbols)
    erasures = list(erasures)
    if len(erasures) > redundancy:
        raise TooManyErasures(f"{len(erasures)} erasures exceed parity {redundancy}")
    cw = [int(s) for s in symbols]
    for p in erasures:
        cw[p] = 0
    if redundancy == 0:
        return cw
    synd = _syndromes(gf, cw, redundancy)
    if not any(synd) and not erasures:
        return cw

    # locators, syndromes and omega are ascending here; gf.poly_mul's
    # convolution is the same in either order, gf.poly_eval wants it reversed
    def locator(positions: list[int]) -> list[int]:
        loc = [1]
        for p in positions:
            loc = gf.poly_mul(loc, [1, gf.exp[(n - 1 - p) % gf.charac]])
        return loc

    erase_loc = locator(erasures)
    # Forney syndromes: remove the erasure contribution before searching errors.
    fsynd = gf.poly_mul(synd, erase_loc)[: len(synd)]
    sigma, n_errors = _berlekamp_massey(gf, fsynd[len(erasures) :])
    if 2 * n_errors + len(erasures) > redundancy:
        raise DecodeFailure("rs", "errata beyond guarantee radius")
    err_pos = []
    if n_errors:
        sigma_desc = sigma[::-1]
        for p in range(n):
            if gf.poly_eval(sigma_desc, gf.exp[gf.charac - ((n - 1 - p) % gf.charac)]) == 0:
                err_pos.append(p)
        if len(err_pos) != n_errors:
            raise DecodeFailure("rs", "error locator degree does not match its roots")
    errata = sorted(erasures + err_pos)
    lam = locator(errata)
    omega_desc = gf.poly_mul(synd, lam)[:redundancy][::-1]
    for p in errata:
        xi = gf.exp[(n - 1 - p) % gf.charac]
        xi_inv = gf.inv(xi)
        num = gf.poly_eval(omega_desc, xi_inv)
        den = 0
        for j in range(1, len(lam), 2):
            den ^= gf.mul(lam[j], gf.pow(xi_inv, j - 1))
        if den == 0:
            raise DecodeFailure("rs", "Forney derivative vanished")
        cw[p] ^= gf.mul(xi, gf.div(num, den))
    if any(_syndromes(gf, cw, redundancy)):
        raise DecodeFailure("rs", "correction failed the syndrome check")
    return cw


def _gf_matmul(gf: GF, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix product over the field of ``a`` (rows, inner) and ``x`` (inner, lanes)."""
    return np.bitwise_xor.reduce(gf.mul_array(a[:, :, None], x[None, :, :]), axis=1)


def rs_decode_lanes(
    words: np.ndarray, erasures: list[int], redundancy: int, width: int = 8, trace: Trace | None = None
) -> np.ndarray:
    """``rs_decode_errors_erasures`` on every column of ``words`` (shape (length, lanes)).

    All lanes share the distinct ``erasures`` positions. Each lane's syndromes
    come from one product over all lanes. A lane whose Forney syndromes past
    the erasure count vanish has errors at the erasures only: its erased
    symbols are one fixed linear map of those syndromes (Forney's formula),
    applied to all such lanes at once and then checked by their syndromes.
    Only the other lanes run the scalar decoder, in lane order, so the first
    of them to fail raises; ``trace`` counts them as ``rs.scalar_lanes``.
    Returns the corrected words.
    """
    gf = GF.get(width)
    if len(erasures) > redundancy:
        raise TooManyErasures(f"{len(erasures)} erasures exceed parity {redundancy}")
    if trace is None:
        trace = Trace()
    n, f = len(words), len(erasures)
    locators = [gf.exp[(n - 1 - p) % gf.charac] for p in erasures]
    rows = np.array(erasures, dtype=np.intp)
    out = words.copy()
    out[rows] = 0
    # syndrome j of a lane is its polynomial, highest degree first, at alpha^j
    powers = gf.exp_array[np.outer(np.arange(redundancy), np.arange(n - 1, -1, -1)) % gf.charac]
    synd = _gf_matmul(gf, powers, out)
    loc = [1]
    for x in locators:
        loc = gf.poly_mul(loc, [1, x])
    # Forney syndromes: the syndromes times the erasure locator, mod x^redundancy
    toeplitz = np.zeros((redundancy, redundancy), dtype=np.int64)
    for t, c in enumerate(loc):
        toeplitz[np.arange(t, redundancy), np.arange(redundancy - t)] = c
    fsynd = _gf_matmul(gf, toeplitz, synd)
    forney = np.zeros((f, redundancy), dtype=np.int64)
    for row, x in enumerate(locators):
        x_inv = gf.inv(x)
        den = 0
        for j in range(1, len(loc), 2):
            den ^= gf.mul(loc[j], gf.pow(x_inv, j - 1))
        scale = gf.div(x, den)  # den != 0: the locators are distinct
        forney[row] = [gf.mul(scale, gf.pow(x_inv, i)) for i in range(redundancy)]
    has_errors = fsynd[f:].any(axis=0)
    batch = np.flatnonzero(~has_errors)
    out[np.ix_(rows, batch)] = _gf_matmul(gf, forney, fsynd[:, batch])
    # a lane that fails the syndrome check goes to the scalar decoder, which raises
    has_errors[batch] = _gf_matmul(gf, powers, out[:, batch]).any(axis=0)
    scalar = np.flatnonzero(has_errors)
    trace.counters["rs.scalar_lanes"] += len(scalar)
    for lane in scalar:
        out[:, lane] = rs_decode_errors_erasures(words[:, lane].tolist(), erasures, redundancy, width)
    return out


# ---------------------------------------------------------------------------
# Repetition code


def rep_encode(bits, fold: int) -> BitArray:
    """Repeat each bit ``fold`` times."""
    return np.repeat(as_bits(bits), fold)


def _rep_run_parse(values: BitArray, lengths: np.ndarray, fold: int, bias: int) -> tuple[BitArray, int]:
    """Read each run of ``lengths`` bits as ``(length + bias) // fold`` symbols.

    ``bias = fold - 1`` rounds up, a deletion-only parse. ``bias = fold // 2``
    rounds to the nearest count, so a run can get no symbol: it is deleted.
    Deleting an inner run merges its two neighbours. Merges go one at a time,
    the one that lowers the rounding error most first, while fewer than
    ``fold`` bits have gone this way. Returns the symbols and the edits the
    parse implies: the deleted bits plus each run's distance from ``fold``
    times its symbols.
    """

    def error(run: int) -> int:
        return abs(run - fold * ((run + bias) // fold))

    def live(i: int, step: int) -> int:  # the nearest run on that side not yet merged away
        i += step
        while i in dead:
            i += step
        return i

    copies = (lengths + bias) // fold
    edits = int(np.abs(lengths - fold * copies).sum())  # a run of no symbols counts as deleted
    zero = np.flatnonzero(copies == 0).tolist()
    lengths, dead, deleted = lengths.copy(), set(), 0
    # a merge clears at most three symbol-less runs, and each one left is
    # deleted: from 3*fold of them on, no parse comes under fold edits
    while zero and deleted < fold and len(zero) < 3 * fold:
        merges = []
        for j in zero:
            a, b = live(j, -1), live(j, 1)
            if a >= 0 and b < len(lengths):
                la, lb = int(lengths[a]), int(lengths[b])
                merges.append((error(la + lb) - error(la) - error(lb), j, a, b))
        if not merges:
            break
        gain, j, a, b = min(merges)
        deleted += int(lengths[j])
        edits += gain
        lengths[a] += lengths[b]
        copies[a], copies[b] = (lengths[a] + bias) // fold, 0
        dead |= {j, b}
        zero = [z for z in zero if z not in dead and copies[z] == 0]
    return np.repeat(values, copies), edits


def rep_decode(y, fold: int, msg_len: int, trace: Trace | None = None) -> BitArray:
    """Decode a repetition word corrupted by at most fold-1 deletions/insertions.

    Run parses come first, rounding each run up (on a word no longer than its
    repetition) and then to the nearest symbol count. A parse is an edit script turning y into its repetition, and
    two repetition words of one length are at least 2*fold edits apart, so a
    parse of ``msg_len`` symbols within fold-1 edits is the one message the DP
    would return. When y is longer than its repetition, its extra leading bits
    may be insertions (bits slid in from before the word), so the nearest
    parse is then tried past them, with those deletions added to its edits.
    Other inputs go to a banded DP over (symbols consumed, drift). ``trace``
    counts the path taken: ``rep.parse_up``, ``rep.parse_nearest``,
    ``rep.parse_skip`` or ``rep.dp``.
    """
    y = as_bits(y)
    extra = len(y) - fold * msg_len
    # rounding up reads at least len/fold symbols, too many from a word longer
    # than its repetition; past such a word's extra bits it would parse only a
    # clean repetition, which the nearest parse reads too
    up = ((fold - 1, "rep.parse_up"),) if extra <= 0 else ()
    for lead in (0, extra) if extra > 0 else (0,):
        z = y[lead:]
        boundary = np.ones(len(z) + 1, dtype=bool)  # where a run starts or z ends
        boundary[1:-1] = z[1:] != z[:-1]
        edges = np.flatnonzero(boundary)
        values, lengths = z[edges[:-1]], np.diff(edges)
        for bias, path in (*up, (fold // 2, "rep.parse_skip" if lead else "rep.parse_nearest")):
            parsed, edits = _rep_run_parse(values, lengths, fold, bias)
            if lead + edits < fold and len(parsed) == msg_len:
                if trace is not None:
                    trace.counters[path] += 1
                return parsed
    if trace is not None:
        trace.counters["rep.dp"] += 1
    return _rep_decode_dp(y, fold, msg_len)


def _rep_decode_dp(y: BitArray, fold: int, msg_len: int) -> BitArray:
    """Cheapest parse of y as msg_len symbols, each read from a span of y.

    State s after symbol i means that symbol ended at fold*(i+1) + s - budget
    in y. Reading bit b from a span costs the insert/delete distance between
    b^fold and the span, so a total within the budget pins the message.
    """
    budget = fold - 1
    drift = len(y) - fold * msg_len
    if abs(drift) > budget:
        raise MalformedRepetition(f"length drift {drift} exceeds budget {budget}")
    prefix = [0, *accumulate(y.tolist())]
    width = 2 * budget + 1
    INF = 1 << 30
    ly = len(y)
    cost = [INF] * width
    cost[budget] = 0
    # one flat buffer of parents, (previous state << 1) | bit per (symbol, state);
    # a byte holds it while the state fits in 7 bits
    parents = array("B" if width <= 128 else "L", [0]) * (msg_len * width)
    for i in range(msg_len):
        base_s = fold * i - budget
        base_e = base_s + fold
        # the states symbol i can start from: reached, and inside y
        live = [(s, c, base_s + s) for s, c in enumerate(cost) if c < INF and 0 <= base_s + s <= ly]
        new_cost = [INF] * width
        row = i * width
        for sp in range(width):
            end = base_e + sp
            if end < 0 or end > ly:
                continue
            best, arg = INF, 0
            ones_end = prefix[end]
            for s, c, start in live:
                span = end - start
                if span < 0:
                    continue
                n1 = ones_end - prefix[start]
                n0 = span - n1
                base = c + fold + span
                c1 = base - 2 * (fold if n1 > fold else n1)
                c0 = base - 2 * (fold if n0 > fold else n0)
                if c1 < best:
                    best, arg = c1, (s << 1) | 1
                if c0 < best:
                    best, arg = c0, s << 1
            new_cost[sp] = best
            parents[row + sp] = arg
        cost = new_cost
    end_state = budget + drift
    if cost[end_state] > budget:
        raise MalformedRepetition("no parse within the edit budget")
    out = bytearray(msg_len)
    state = end_state
    for i in range(msg_len - 1, -1, -1):
        packed = parents[i * width + state]
        out[i] = packed & 1
        state = packed >> 1
    return np.frombuffer(out, dtype=np.uint8)
