"""Classical sub-codes: systematic Reed-Solomon (erasures, errors+erasures),
the odd/even pair-parity code for two consecutive erasures, and the
(k+1)-fold repetition code with an exact mixed-edit decoder.

Field elements are plain ints inside GF(2^w); symbol strings carry an optional
erasure mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from .bits import BitArray, as_bits
from .errors import (
    DecodeFailure,
    FieldTooSmall,
    MalformedRepetition,
    TooManyErasures,
    UnsupportedErasurePattern,
)
from .gf import GF


@dataclass(frozen=True)
class SymbolString:
    """Symbols over GF(2^w); mask[i] True marks position i erased."""

    symbols: tuple[int, ...]
    erasure_mask: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.erasure_mask is not None and len(self.erasure_mask) != len(self.symbols):
            raise ValueError("erasure mask length must match symbol count")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def erasures(self) -> tuple[int, ...]:
        if self.erasure_mask is None:
            return ()
        return tuple(i for i, e in enumerate(self.erasure_mask) if e)


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


def rs_encode(msg: SymbolString, redundancy: int, width: int = 8) -> SymbolString:
    """Systematic encoding: message followed by ``redundancy`` parity symbols."""
    parity = rs_parity_lanes(np.array(msg.symbols, dtype=np.int64).reshape(-1, 1), redundancy, width)
    return SymbolString(msg.symbols + tuple(parity[:, 0].tolist()))


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
    exp, log = gf.exp_array, gf.log_array
    gen = np.array(rs_generator_poly(width, redundancy)[1:], dtype=np.int64)
    gen_log, gen_zero = log[gen], gen == 0
    for symbols in messages:
        coef = symbols ^ rem[:, 0]
        rem[:, :-1] = rem[:, 1:]
        rem[:, -1] = 0
        term = exp[log[coef][:, None] + gen_log]
        term[coef == 0] = 0
        term[:, gen_zero] = 0
        rem ^= term
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
    word: SymbolString, redundancy: int, width: int = 8
) -> SymbolString:
    """Correct erasures (masked positions) plus unknown-position errors.

    Guaranteed exact when 2*errors + erasures <= redundancy; raises
    DecodeFailure otherwise (never silently wrong inside the guarantee region).
    Returns the full corrected codeword with the mask cleared.
    """
    gf = GF.get(width)
    n = len(word)
    erasures = list(word.erasures)
    if len(erasures) > redundancy:
        raise TooManyErasures(f"{len(erasures)} erasures exceed parity {redundancy}")
    cw = [0 if (word.erasure_mask and word.erasure_mask[i]) else int(s) for i, s in enumerate(word.symbols)]
    if redundancy == 0:
        return SymbolString(tuple(cw))
    synd = _syndromes(gf, cw, redundancy)
    if not any(synd) and not erasures:
        return SymbolString(tuple(cw))

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
    return SymbolString(tuple(cw))


def rs_decode_erasures(word: SymbolString, redundancy: int, width: int = 8) -> SymbolString:
    """Restore masked positions (up to ``redundancy`` of them); returns the message part."""
    if len(word.erasures) > redundancy:
        raise TooManyErasures(f"{len(word.erasures)} erasures exceed parity {redundancy}")
    fixed = rs_decode_errors_erasures(word, redundancy, width)
    return SymbolString(fixed.symbols[: len(word) - redundancy])


# ---------------------------------------------------------------------------
# Odd/even pair parity (two consecutive erasures)


def oddeven_parity(symbols) -> tuple[int, int]:
    """(xor of 1-based odd positions, xor of even positions) over GF(2^w)."""
    p_odd = p_even = 0
    for i, s in enumerate(symbols):
        if i % 2 == 0:
            p_odd ^= int(s)
        else:
            p_even ^= int(s)
    return p_odd, p_even


def oddeven_restore(symbols: list[int | None], parity: tuple[int, int]) -> list[int]:
    """Fill erased (None) symbols; supports none, one, or two consecutive erasures."""
    erased = [i for i, s in enumerate(symbols) if s is None]
    if len(erased) > 2:
        raise UnsupportedErasurePattern(f"{len(erased)} erasures")
    if len(erased) == 2 and erased[1] - erased[0] != 1:
        raise UnsupportedErasurePattern(f"non-consecutive erasures at {erased}")
    out = [int(s) if s is not None else 0 for s in symbols]
    for pos in erased:
        cls = pos % 2
        acc = parity[0] if cls == 0 else parity[1]
        for i, s in enumerate(out):
            if i % 2 == cls and i not in erased:
                acc ^= s
        out[pos] = acc
    return out


# ---------------------------------------------------------------------------
# Repetition code


def rep_encode(bits, fold: int) -> BitArray:
    """Repeat each bit ``fold`` times."""
    return np.repeat(as_bits(bits), fold)


def _rep_run_parse(y: BitArray, fold: int) -> tuple[BitArray, int] | None:
    """Deletion-only parse: round each run up to whole symbols; None if over budget."""
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


def rep_decode(y, fold: int, msg_len: int | None = None) -> BitArray:
    """Decode a repetition word corrupted by at most fold-1 deletions/insertions.

    A pure-deletion run parse is tried first (exact: runs cannot merge or
    vanish under fewer than ``fold`` deletions); inputs that only fit a mixed
    parse fall back to a banded DP over (symbols consumed, drift), which is
    unique because a fold-repetition code corrects any fold-1 mixed edits.
    """
    y = as_bits(y)
    parsed = _rep_run_parse(y, fold)
    if parsed is not None and (msg_len is None or len(parsed[0]) == msg_len):
        return parsed[0]
    if msg_len is None:
        raise MalformedRepetition("no deletion-only parse; message length needed for edit parse")
    return _rep_decode_dp(y, fold, msg_len)


def _rep_decode_dp(y: BitArray, fold: int, msg_len: int) -> BitArray:
    if msg_len <= 64:
        return _rep_decode_dp_small(y, fold, msg_len)
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


def _rep_decode_dp_small(y: BitArray, fold: int, msg_len: int) -> BitArray:
    """Plain-python twin of the DP for short messages (exhaustive test loads)."""
    budget = fold - 1
    drift = len(y) - fold * msg_len
    if abs(drift) > budget:
        raise MalformedRepetition(f"length drift {drift} exceeds budget {budget}")
    prefix = [0]
    for b in y:
        prefix.append(prefix[-1] + int(b))
    width = 2 * budget + 1
    INF = 1 << 30
    ly = len(y)
    cost = [INF] * width
    cost[budget] = 0
    parents: list[list[int]] = []
    for i in range(msg_len):
        base_s = fold * i - budget
        base_e = fold * (i + 1) - budget
        new_cost = [INF] * width
        par = [0] * width
        for sp in range(width):
            end = base_e + sp
            if end < 0 or end > ly:
                continue
            best, arg = INF, 0
            for s in range(width):
                c0 = cost[s]
                if c0 >= INF:
                    continue
                start = base_s + s
                if start < 0 or start > end:
                    continue
                span = end - start
                n1 = prefix[end] - prefix[start]
                c1 = c0 + fold + span - 2 * (fold if n1 > fold else n1)
                n0 = span - n1
                c0b = c0 + fold + span - 2 * (fold if n0 > fold else n0)
                if c1 < best:
                    best, arg = c1, (s << 1) | 1
                if c0b < best:
                    best, arg = c0b, s << 1
            new_cost[sp] = best
            par[sp] = arg
        cost = new_cost
        parents.append(par)
    end_state = budget + drift
    if cost[end_state] > budget:
        raise MalformedRepetition("no parse within the edit budget")
    out = []
    state = end_state
    for i in range(msg_len - 1, -1, -1):
        packed = parents[i][state]
        out.append(packed & 1)
        state = packed >> 1
    return np.array(out[::-1], dtype=np.uint8)
