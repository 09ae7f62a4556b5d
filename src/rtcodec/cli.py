"""Command-line interface.

Subcommands: encode, corrupt, decode, trial, oracle. Exit codes: 0 success,
2 decode failure, 3 configuration error, 4 I/O error, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import files
from .delcodec import decode_deletions, encode_deletions
from .editcodec import decode_edits, encode_edits
from .errors import DecodeFailure, ParamViolation, RtCodecError
from .harness import (
    CODE_KEYS,
    oracle_ball_disjoint,
    oracle_cap_sweep,
    oracle_hasher_exhaustive,
    params_from_config,
    run_trials,
    validate_trial_config,
)
from .layout import build_layout
from .model import (
    BitTrack,
    DeletionPattern,
    EditPattern,
    apply_deletions,
    apply_edits,
    sample_edit_pattern,
)
from .params import CodeParams
from .trace import Trace

EXIT_OK = 0
EXIT_DECODE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(EXIT_CONFIG, f"bad JSON in {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise CliError(EXIT_CONFIG, f"{path} must hold a JSON object")
    return cfg


def _params_from_args(args, n: int) -> CodeParams:
    cfg = {
        "mode": args.mode,
        "n": n,
        "k": args.k,
        "d": args.d,
        "hash": args.hash,
        "paper_exact": not args.relaxed,
    }
    if args.t is not None:
        cfg["t"] = args.t
    if args.period_bound is not None:
        cfg["T"] = args.period_bound
    if args.block_len is not None:
        cfg["block_len"] = args.block_len
    try:
        return params_from_config(cfg)
    except (ValueError, ParamViolation) as e:
        raise CliError(EXIT_CONFIG, str(e)) from e


def cmd_encode(args) -> int:
    try:
        track = files.read_track(args.infile)
    except (OSError, ValueError) as e:
        raise CliError(EXIT_IO, f"cannot read track: {e}") from e
    params = _params_from_args(args, len(track))
    encode = encode_deletions if args.mode == "del" else encode_edits
    try:
        cw = encode(BitTrack(track), params)
    except RtCodecError as e:
        raise CliError(EXIT_CONFIG, str(e)) from e
    files.write_codeword(args.out, cw, params, build_layout(params).to_dict())
    print(f"wrote {len(cw)}-bit codeword to {args.out}")
    return EXIT_OK


def _parse_positions(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def cmd_corrupt(args) -> int:
    try:
        cw, params = files.read_codeword(args.infile)
    except ParamViolation as e:
        raise CliError(EXIT_CONFIG, f"bad sidecar: {e}") from e
    except (OSError, ValueError) as e:
        raise CliError(EXIT_IO, f"cannot read codeword: {e}") from e
    track = BitTrack(cw)
    try:
        if args.delta1 is not None:
            delta1 = _parse_positions(args.delta1)
            if args.gamma1 is not None or params.kind == "edit":
                gamma1 = _parse_positions(args.gamma1 or "")
                ins_bits = (
                    tuple(tuple(int(b) for b in row) for row in args.ins_bits.split(","))
                    if args.ins_bits
                    else tuple(() for _ in range(params.d))
                )
                pattern = EditPattern(delta1, gamma1, ins_bits)
                matrix = apply_edits(track, pattern, params.geometry)
            else:
                pattern = DeletionPattern(delta1)
                matrix = apply_deletions(track, pattern, params.geometry)
        else:
            r, s = args.r, args.s
            if params.kind == "deletion":
                if s:
                    raise CliError(EXIT_CONFIG, "a deletion code's reads take no insertions; drop --s")
                r, s = params.k if r is None else r, 0
            elif (r, s) != (None, None):  # one count given: the other is 0
                r, s = r or 0, s or 0
            rng = random.Random(args.seed)
            pattern = sample_edit_pattern(rng, len(track), params.k, params.geometry, r=r, s=s)
            if params.kind == "deletion":
                matrix = apply_deletions(track, DeletionPattern(pattern.delta1), params.geometry)
            else:
                matrix = apply_edits(track, pattern, params.geometry)
    except (RtCodecError, ValueError) as e:  # ValueError: a malformed position or bit list
        raise CliError(EXIT_CONFIG, str(e)) from e
    files.write_matrix(args.out, matrix)
    print(f"wrote {matrix.d}x{matrix.cols} read matrix to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    try:
        matrix = files.read_matrix(args.infile)
        params = files.read_sidecar(args.sidecar)
    except ParamViolation as e:
        raise CliError(EXIT_CONFIG, f"bad sidecar: {e}") from e
    except (OSError, ValueError, KeyError) as e:
        raise CliError(EXIT_IO, f"cannot read inputs: {e}") from e
    report: dict = {"schema_version": 1, "kind": params.kind}
    trace = Trace()
    decode = decode_deletions if params.kind == "deletion" else decode_edits
    try:
        out = decode(matrix, params, trace)
    except DecodeFailure as e:
        report.update({"ok": False, "stage": e.stage, "error": str(e)})
        print(f"decode failed at stage {e.stage}: {e}", file=sys.stderr)
    except RtCodecError as e:
        raise CliError(EXIT_CONFIG, f"parameters unusable for decoding: {e}") from e
    else:
        files.write_track(args.out, out)
        report.update({"ok": True, "bits": len(out)})
        print(f"wrote {len(out)}-bit track to {args.out}")
    if args.report:
        report["trace"] = trace.to_dict()
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK if report["ok"] else EXIT_DECODE


def cmd_trial(args) -> int:
    cfg = _load_json(args.config)
    try:
        validate_trial_config(cfg)
    except ValueError as e:
        raise CliError(EXIT_CONFIG, str(e)) from e
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    trials = args.trials if args.trials is not None else cfg.get("trials", 100)
    try:
        report = run_trials(cfg, seed, trials, stable_report=args.stable_report)
    except (RtCodecError, ValueError) as e:  # includes a hasher that cannot serve the code
        raise CliError(EXIT_CONFIG, str(e)) from e
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    # relaxed codes carry no guarantee, but a crash fails any campaign
    crashed = any(stage.startswith("crash:") for stage in report["stage_histogram"])
    if report["successes"] < report["trials"] and (cfg.get("paper_exact", True) or crashed):
        print(f"{report['trials'] - report['successes']} trials failed", file=sys.stderr)
        return EXIT_DECODE
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        if args.oracle == "ball-disjoint":
            cfg = _load_json(args.config)
            unknown = set(cfg) - CODE_KEYS - {"count", "seed"}
            if unknown:
                raise CliError(EXIT_CONFIG, f"unknown config keys: {sorted(unknown)}")
            if cfg.get("mode", "del") != "del":
                raise CliError(EXIT_CONFIG, f"ball-disjoint checks deletion codes only, got mode {cfg['mode']!r}")
            params = params_from_config({**cfg, "mode": "del"})
            rng = random.Random(cfg.get("seed", 0))
            messages = [
                BitTrack([rng.randrange(2) for _ in range(params.n)])
                for _ in range(cfg.get("count", 10))
            ]
            report = oracle_ball_disjoint(params, messages)
            ok = report["disjoint"]
        elif args.oracle == "hasher":
            report = oracle_hasher_exhaustive(args.hash, args.m, args.k)
            ok = report["failures"] == 0
        else:  # fsweep
            report = oracle_cap_sweep(args.max_n, args.max_k)
            ok = report["violations"] == 0
    except (RtCodecError, ValueError) as e:
        raise CliError(EXIT_CONFIG, str(e)) from e
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK if ok else EXIT_DECODE


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtcodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a track file into a codeword + sidecar")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--mode", choices=["del", "edit"], default="del")
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--d", type=int, required=True)
    enc.add_argument("--t", type=int)
    enc.add_argument("--hash", choices=["identity", "vt", "coloring"], default="identity")
    enc.add_argument("--relaxed", action="store_true")
    enc.add_argument("--period-bound", type=int)
    enc.add_argument("--block-len", type=int)
    enc.set_defaults(func=cmd_encode)

    cor = sub.add_parser("corrupt", help="apply a shift-error pattern to a codeword")
    cor.add_argument("--in", dest="infile", required=True)
    cor.add_argument("--out", required=True)
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--delta1", help="comma-separated deletion positions (head 1)")
    cor.add_argument("--gamma1", help="comma-separated insertion positions (head 1)")
    cor.add_argument("--ins-bits", help="per-head inserted bits, heads comma-separated")
    cor.add_argument("--r", type=int, help="sampled deletion count (default: k, or drawn with --s for edit codes)")
    cor.add_argument("--s", type=int, help="sampled insertion count (edit codes only)")
    cor.set_defaults(func=cmd_corrupt)

    dec = sub.add_parser("decode", help="decode a read matrix back into a track")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--sidecar", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--report")
    dec.set_defaults(func=cmd_decode)

    tri = sub.add_parser("trial", help="run a Monte-Carlo campaign from a JSON config")
    tri.add_argument("--config", required=True)
    tri.add_argument("--seed", type=int)
    tri.add_argument("--trials", type=int)
    tri.add_argument("--out")
    tri.add_argument("--stable-report", action="store_true", help="omit wall-clock for byte-identical reruns")
    tri.set_defaults(func=cmd_trial)

    ora = sub.add_parser("oracle", help="exhaustive desk-scale verifications")
    ora.add_argument("oracle", choices=["ball-disjoint", "hasher", "fsweep"])
    ora.add_argument("--config", help="ball-disjoint: JSON with n,k,d,t,count,seed")
    ora.add_argument("--hash", choices=["identity", "vt", "coloring"], default="coloring")
    ora.add_argument("--m", type=int, default=8)
    ora.add_argument("--k", type=int, default=2)
    ora.add_argument("--max-n", type=int, default=10)
    ora.add_argument("--max-k", type=int, default=2)
    ora.add_argument("--out")
    ora.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # a fault in the library itself, reported in one line
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
