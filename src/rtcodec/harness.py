"""Monte-Carlo trial campaigns and oracle sweeps.

Trials run one after another in the calling process. Determinism: trial i
of a campaign seeded with S draws all randomness from
``random.Random(f"{S}:{i}")`` (string seeding hashes via SHA-512, stable
across platforms), so a report with ``stable_report`` set reproduces
bit-for-bit, and trial i's outcome does not depend on the trials before it.
"""

from __future__ import annotations

import random
import time
import traceback
from functools import reduce

import numpy as np

from .delcodec import decode_deletions, encode_deletions
from .editcodec import decode_edits, encode_edits
from .errors import DecodeFailure, RtCodecError
from .hashing import ColoringHasher, _deletions, make_hasher
from .layout import build_layout
from .model import (
    BitTrack,
    DeletionPattern,
    apply_deletions,
    apply_edits,
    enumerate_deletion_ball,
    sample_edit_pattern,
)
from .params import CodeParams
from .periodicity import cap_periods, max_periodic_run, period_cap, uncap_periods

# the config keys ``params_from_config`` reads; trial and oracle configs add their own
CODE_KEYS = {"mode", "n", "k", "d", "t", "hash", "paper_exact", "T", "block_len"}


def validate_trial_config(cfg: dict) -> dict:
    unknown = set(cfg) - CODE_KEYS - {"schema_version", "trials", "seed"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("mode", "n", "k", "d"):
        if key not in cfg:
            raise ValueError(f"config missing required key {key!r}")
    if cfg["mode"] not in ("del", "edit"):
        raise ValueError("mode must be 'del' or 'edit'")
    return cfg


def params_from_config(cfg: dict) -> CodeParams:
    kind = "deletion" if cfg["mode"] == "del" else "edit"
    paper_exact = cfg.get("paper_exact", True)
    hash_mode = cfg.get("hash", "identity")
    if paper_exact:
        if "T" in cfg or "block_len" in cfg:
            raise ValueError("T and block_len are set by the paper; give them only with paper_exact: false")
        maker = CodeParams.deletion if kind == "deletion" else CodeParams.edit
        return maker(cfg["n"], cfg["k"], cfg["d"], t=cfg.get("t"), hash_mode=hash_mode)
    t = cfg.get("t")
    if t is None:
        raise ValueError("relaxed configs must give t explicitly")
    return CodeParams.relaxed(
        cfg["n"],
        cfg["k"],
        tuple([t] * (cfg["d"] - 1)) if isinstance(t, int) else tuple(t),
        kind=kind,
        T=cfg.get("T"),
        block_len=cfg.get("block_len"),
        hash_mode=hash_mode,
    )


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def run_one_trial(params: CodeParams, mode: str, seed: int, index: int) -> dict:
    rng = trial_rng(seed, index)
    msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
    try:
        if mode == "del":
            cw = BitTrack(encode_deletions(msg, params))
            pattern = sample_edit_pattern(rng, len(cw), params.k, params.geometry, r=params.k, s=0)
            matrix = apply_deletions(cw, DeletionPattern(pattern.delta1), params.geometry)
            out = decode_deletions(matrix, params)
        else:
            cw = BitTrack(encode_edits(msg, params))
            pattern = sample_edit_pattern(rng, len(cw), params.k, params.geometry)
            matrix = apply_edits(cw, pattern, params.geometry)
            out = decode_edits(matrix, params)
    except DecodeFailure as e:
        return {"trial": index, "ok": False, "stage": e.stage}
    except RtCodecError as e:
        return {"trial": index, "ok": False, "stage": type(e).__name__}
    except Exception as e:  # a bug, not a decode outcome: report it, keep the campaign going
        traceback.print_exc()
        return {"trial": index, "ok": False, "stage": f"crash:{type(e).__name__}"}
    ok = bool(np.array_equal(out, msg.bits))
    return {"trial": index, "ok": ok, "stage": None if ok else "mismatch"}


def run_trials(cfg: dict, seed: int, trials: int, stable_report: bool = False) -> dict:
    validate_trial_config(cfg)
    params = params_from_config(cfg)
    layout = build_layout(params)
    start = time.monotonic()
    results = [run_one_trial(params, cfg["mode"], seed, i) for i in range(trials)]
    elapsed = time.monotonic() - start
    failures = [r for r in results if not r["ok"]]
    histogram: dict[str, int] = {}
    for r in failures:
        histogram[r["stage"]] = histogram.get(r["stage"], 0) + 1
    report = {
        "schema_version": 1,
        "config": {key: cfg[key] for key in sorted(cfg)},
        "seed": seed,
        "trials": trials,
        "successes": trials - len(failures),
        "success_rate": (trials - len(failures)) / trials if trials else 1.0,
        "failures": [{"trial": r["trial"], "stage": r["stage"]} for r in failures],
        "stage_histogram": histogram,
        "redundancy": {
            "N": layout.total,
            "n": params.n,
            "overhead_bits": layout.total - params.n,
            "f_len": layout.f_len,
            "n1": layout.n1,
            "n2": layout.n2,
            "blocks": len(layout.blocks),
            "parity_groups": layout.parity_groups,
        },
    }
    if not stable_report:
        report["wall_clock_s"] = round(elapsed, 3)
    return report


# ---------------------------------------------------------------------------
# Oracles


def oracle_ball_disjoint(
    params: CodeParams, messages: list[BitTrack], budget: int = 2_000_000
) -> dict:
    """Pairwise deletion-ball disjointness of the encoded messages."""
    codewords = [BitTrack(encode_deletions(m, params)) for m in messages]
    balls = [
        {mat for mat in enumerate_deletion_ball(cw, params.k, params.geometry, budget)}
        for cw in codewords
    ]
    collisions = []
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if balls[i] & balls[j]:
                collisions.append((i, j))
    return {
        "codewords": len(codewords),
        "pairs": len(balls) * (len(balls) - 1) // 2,
        "ball_sizes": [len(b) for b in balls],
        "collisions": collisions,
        "disjoint": not collisions,
    }


def oracle_hasher_exhaustive(name: str, m: int, k: int) -> dict:
    """Every sequence, every k-deletion window: recovery must be exact."""
    from .bits import bits_from_int

    if m < 0 or k < 0:
        raise ValueError(f"m and k must be non-negative, got m={m}, k={k}")
    hasher = make_hasher(name)
    checked = failures = 0
    for v in range(1 << m):
        c = bits_from_int(v, m)
        h = hasher.hash(c, k)
        for w in reduce(_deletions, range(m, m - k, -1), {v}):
            checked += 1
            try:
                if not np.array_equal(hasher.recover(bits_from_int(w, m - k), h, m, k), c):
                    failures += 1
            except RtCodecError:
                failures += 1
    report = {"hasher": name, "m": m, "k": k, "checked": checked, "failures": failures}
    report["hash_len"] = hasher.hash_len(m, k)
    if isinstance(hasher, ColoringHasher):
        report["colors"] = hasher.color_count(m, k)
    return report


def oracle_cap_sweep(max_n: int, max_k: int) -> dict:
    """Exhaustive period-cap bound + injectivity + inversion for tiny n."""
    from .bits import bits_from_int

    checked = violations = 0
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            seen: dict[bytes, int] = {}
            for v in range(1 << n):
                c = bits_from_int(v, n)
                f = cap_periods(c, k)
                checked += 1
                if len(f) != n + k + 1:
                    violations += 1
                    continue
                if max_periodic_run(f, k) > period_cap(n, k):
                    violations += 1
                key = f.tobytes()
                if key in seen:
                    violations += 1
                seen[key] = v
                if not np.array_equal(uncap_periods(f, k, n), c):
                    violations += 1
    return {"max_n": max_n, "max_k": max_k, "checked": checked, "violations": violations}
