"""Closed-loop codec benchmark: one process, one caller, no worker pool.

A run draws a pool of inputs (messages and head-1 error patterns) from the
seed before timing starts, then cycles through the pool for the requested
time: encode, channel (or ``corrupt``), decode, and a check of every decoded
track against its message. Latencies are taken per pool input as the median
of its repetitions; the percentiles are taken across pool inputs, so the
sample count is the pool size whatever the machine speed.

With tracing on, each pool input runs once untraced and once traced, back to
back; end-to-end numbers always come from untraced trials.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from .tracer import COUNTERS, FUNC, FUNCTION_LAYERS, LAYER, METHOD_LAYERS, OK, ROOT_LAYER, Tracer

# each repetition re-imports rtcodec, builds params and layout, draws the pool
# and runs one warm-up trial; setup_s is their median
SETUP_REPEATS = 5
# a percentile is reported as the tail only with this many samples beyond it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "del" | "edit"
    n: int
    k: int
    d: int
    via: str  # "api": codec functions in-process; "cli": rtcodec.cli.main
    # Pool inputs per pattern class, in class order. The class is the number
    # of head-1 deletions inside the capped track (deletion mode), or 0/1
    # without/with R2 gain (edit mode). Decode time is multi-modal in the
    # class, so a fixed mix keeps p50 and the p75 tail at the same place among
    # the modes on every seed.
    mix: tuple[int, ...]

    @property
    def pool(self) -> int:
        """Distinct inputs per run: the sample count of every percentile."""
        return sum(self.mix)


WORKLOADS = {
    w.name: w
    for w in (
        # without / with R2 gain: p50 and the tail both in the rep-DP mode
        Workload("edit-rs", "edit", 1024, 4, 2, "api", mix=(10, 30)),
        # no deletion or one inside the capped track: p50 without restore,
        # the tail with it
        Workload("cli-rs", "del", 4096, 4, 2, "cli", mix=(25, 15)),
    )
}

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "encode_ms.p50": "ms",
    "encode_ms.tail": "ms",
    "decode_ms.p50": "ms",
    "decode_ms.tail": "ms",
    "decode_kbit_s": "kbit/s",
    "trials_per_s": "1/s",
    "redundancy": "ratio",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "periodicity.cap.self_ms": "ms",
    "periodicity.cap.calls": "count",
    "periodicity.uncap.self_ms": "ms",
    "algebra.rep_decode.self_ms": "ms",
    "algebra.rep_decode.calls": "count",
    "algebra.rep_encode.self_ms": "ms",
    "layout.parity.self_ms": "ms",
    "layout.restore.self_ms": "ms",
    "layout.restore.calls": "count",
    "layout.restore.substituted": "count",
    "layout.pack.self_ms": "ms",
    "layout.f_len_bits": "bit",
    "layout.n1_bits": "bit",
    "layout.n2_bits": "bit",
    "hashing.hash.self_ms": "ms",
    "hashing.recover.self_ms": "ms",
    "hashing.recover.calls": "count",
    "delsync.report.self_ms": "ms",
    "delsync.identify.self_ms": "ms",
    "delsync.count.self_ms": "ms",
    "delsync.align.self_ms": "ms",
    "delsync.recover.self_ms": "ms",
    "delsync.intervals": "count",
    "delsync.recover.calls": "count",
    "delsync.recover.failed": "count",
    "bits.agreement_runs.self_ms": "ms",
    "editsync.report.self_ms": "ms",
    "editsync.identify.self_ms": "ms",
    "editsync.net_shift.self_ms": "ms",
    "editsync.outside.self_ms": "ms",
    "editsync.reduce.self_ms": "ms",
    "editsync.intervals": "count",
    "editsync.reduce.calls": "count",
    "editsync.reduce.stuck": "count",
    "editcodec.choices_per_decode": "count",
    "editcodec.choice_yield": "ratio",
    "bits.verify.self_ms": "ms",
    "bits.verify.calls": "count",
    "model.channel.self_ms": "ms",
    "files.write.self_ms": "ms",
    "files.read.self_ms": "ms",
    "files.bytes": "byte",
    "cli.self_ms": "ms",
    "delcodec.self_ms": "ms",
    "editcodec.self_ms": "ms",
    "bench.self_ms": "ms",
    "trial.traced_ms": "ms",
    "workload.r2_gain_share": "ratio",
    "workload.straddle_share": "ratio",
    "workload.restore_share": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# rtcodec loading


def load_rtcodec(src: Path):
    """Import rtcodec afresh from ``src`` (dropping any loaded copy)."""
    for name in [m for m in sys.modules if m == "rtcodec" or m.startswith("rtcodec.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    rt = importlib.import_module("rtcodec")
    importlib.import_module("rtcodec.cli")
    importlib.import_module("rtcodec.files")
    if not Path(rt.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"rtcodec imported from {rt.__file__}, not from {src}")
    return rt


# ---------------------------------------------------------------------------
# inputs


@dataclass
class TrialInput:
    msg: np.ndarray
    track: object  # rtcodec BitTrack of msg
    pattern: object  # DeletionPattern | EditPattern
    cls: int  # pattern class, see Workload.mix
    r2_gain: bool  # head-1 read of R2 gains bits, so rep_decode leaves its run parse
    straddle: bool  # errors both inside the capped track and in the redundancy
    msg_path: str = ""  # via cli: message track file


def _rng(seed: int, workload: Workload, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode()), index])


def r2_gain(layout, delta1, gamma1) -> bool:
    """Whether head 1's read of R2 gains bits under the pattern.

    An insertion inside R2, or more insertions than deletions ahead of it
    (which slides R1 bits into the window the decoder reads as R2), leaves
    the deletion-only run parse of ``rep_decode`` and selects its DP.
    """
    r2_start = layout.f_len + layout.n1 + 1  # 1-based first R2 position
    ins_in = sum(1 for g in gamma1 if g >= r2_start)
    ahead = sum(1 for g in gamma1 if g < r2_start) - sum(1 for p in delta1 if p < r2_start)
    return ins_in > 0 or ahead > 0


def straddle(layout, positions) -> bool:
    """Whether head-1 errors sit both inside the capped track and after it.

    The trailing read interval then reaches into the capped track with too
    few pinned bits for a direct search, and the deletion decoder restores
    its blocks through the block-hash erasure path.
    """
    inside = sum(1 for p in positions if p <= layout.f_len)
    return 0 < inside < len(positions)


def slot_classes(mix: tuple[int, ...]) -> list[int]:
    """Class of each pool slot: every class spread evenly over the pool."""
    pool, given, out = sum(mix), [0] * len(mix), []
    for i in range(pool):
        c = max(range(len(mix)), key=lambda c: mix[c] * (i + 1) / pool - given[c])
        given[c] += 1
        out.append(c)
    return out


def _pattern(rt, workload, params, layout, rng, cls: int):
    """A uniform admissible pattern among those of class ``cls``."""
    hi = layout.total - params.geometry.span  # last admissible head-1 position
    if workload.mode == "del":
        inside = rng.choice(np.arange(1, layout.f_len + 1), size=cls, replace=False)
        outside = rng.choice(np.arange(layout.f_len + 1, hi + 1), size=workload.k - cls, replace=False)
        return rt.DeletionPattern(tuple(int(p) for p in np.concatenate([inside, outside])))
    pairs = [(r, s) for r in range(workload.k + 1) for s in range(workload.k + 1) if r + s <= workload.k]
    while True:
        r, s = pairs[int(rng.integers(len(pairs)))]
        delta1 = tuple(int(p) for p in rng.choice(np.arange(1, hi + 1), size=r, replace=False))
        gamma1 = tuple(int(p) for p in rng.choice(np.arange(0, hi + 1), size=s, replace=False))
        if int(r2_gain(layout, delta1, gamma1)) == cls:
            bits = tuple(tuple(int(b) for b in rng.integers(0, 2, size=s)) for _ in range(workload.d))
            return rt.EditPattern(delta1, gamma1, bits)


def make_pool(rt, workload: Workload, params, layout, seed: int, scratch: Path) -> list[TrialInput]:
    pool = []
    for i, cls in enumerate(slot_classes(workload.mix)):
        rng = _rng(seed, workload, i)
        msg = rng.integers(0, 2, size=workload.n, dtype=np.uint8)
        pattern = _pattern(rt, workload, params, layout, rng, cls)
        gamma1 = getattr(pattern, "gamma1", ())
        inp = TrialInput(
            msg, rt.BitTrack(msg), pattern, cls,
            r2_gain(layout, pattern.delta1, gamma1), straddle(layout, pattern.delta1 + gamma1),
        )
        if workload.via == "cli":
            inp.msg_path = str(scratch / f"msg-{i}.track")
            rt.files.write_track(inp.msg_path, msg)
        pool.append(inp)
    return pool


# ---------------------------------------------------------------------------
# trials


@dataclass
class TrialResult:
    encode_s: float
    decode_s: float
    total_s: float
    stage: str | None  # None on a correct decode
    codeword: bytes  # codeword bytes (cli: codeword file text)
    decoded: bytes  # decoded bits, empty on failure


class Context:
    """Everything one workload's trials need, built by one setup repetition."""

    def __init__(self, rt, workload: Workload, seed: int, scratch: Path):
        self.rt = rt
        self.workload = workload
        if workload.mode == "del":
            self.params = rt.CodeParams.deletion(workload.n, workload.k, workload.d)
            self.layout = rt.deletion_layout(self.params)
        else:
            self.params = rt.CodeParams.edit(workload.n, workload.k, workload.d)
            self.layout = rt.edit_layout(self.params)
        self.scratch = scratch
        self.pool = make_pool(rt, workload, self.params, self.layout, seed, scratch)

    def trial(self, inp: TrialInput) -> TrialResult:
        if self.workload.via == "cli":
            return self._cli_trial(inp)
        return self._api_trial(inp)

    def _api_trial(self, inp: TrialInput) -> TrialResult:
        rt, params = self.rt, self.params
        deletion = self.workload.mode == "del"
        t0 = perf_counter()
        cw = rt.encode_deletions(inp.track, params) if deletion else rt.encode_edits(inp.track, params)
        t1 = perf_counter()
        stored = rt.BitTrack(cw)
        if deletion:
            reads = rt.apply_deletions(stored, inp.pattern, params.geometry)
        else:
            reads = rt.apply_edits(stored, inp.pattern, params.geometry)
        t2 = perf_counter()
        try:
            out = rt.decode_deletions(reads, params) if deletion else rt.decode_edits(reads, params)
            stage = None
        except rt.DecodeFailure as e:
            out, stage = None, e.stage
        t3 = perf_counter()
        if out is not None and not np.array_equal(out, inp.msg):
            stage = "mismatch"
        t4 = perf_counter()
        return TrialResult(
            t1 - t0, t3 - t2, t4 - t0, stage, np.packbits(cw).tobytes(),
            b"" if out is None else np.packbits(out).tobytes(),
        )

    def _cli_trial(self, inp: TrialInput) -> TrialResult:
        rt, w = self.rt, self.workload
        cw_path, reads_path = self.scratch / "cw.track", self.scratch / "reads.mat"
        out_path, report_path = self.scratch / "out.track", self.scratch / "report.json"
        out_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        delta1 = ",".join(str(p) for p in inp.pattern.delta1)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            rc = rt.cli.main(
                ["encode", "--in", inp.msg_path, "--out", str(cw_path), "--mode", w.mode,
                 "--k", str(w.k), "--d", str(w.d)]
            )
            t1 = perf_counter()
            if rc != 0:
                raise RuntimeError(f"cli encode exited {rc}: {sink.getvalue()}")
            rc = rt.cli.main(["corrupt", "--in", str(cw_path), "--out", str(reads_path), "--delta1", delta1])
            t2 = perf_counter()
            if rc != 0:
                raise RuntimeError(f"cli corrupt exited {rc}: {sink.getvalue()}")
            rc = rt.cli.main(
                ["decode", "--in", str(reads_path), "--sidecar", str(cw_path) + ".json",
                 "--out", str(out_path), "--report", str(report_path)]
            )
            t3 = perf_counter()
            out, stage = None, None
            if rc == 0:
                out = rt.files.read_track(out_path)
                if not np.array_equal(out, inp.msg):
                    stage = "mismatch"
            elif rc == 2:
                stage = json.loads(report_path.read_text())["stage"]
            else:
                raise RuntimeError(f"cli decode exited {rc}: {sink.getvalue()}")
            t4 = perf_counter()
        return TrialResult(
            t1 - t0, t3 - t2, t4 - t0, stage, cw_path.read_bytes(),
            b"" if out is None else np.packbits(out).tobytes(),
        )


def run_trial(ctx: Context, inp: TrialInput) -> TrialResult:
    """One trial; an exception that is not a decode failure is a crash, not a failure."""
    try:
        return ctx.trial(inp)
    except Exception as e:  # noqa: BLE001 - recorded, and fails the run
        traceback.print_exc()
        return TrialResult(0.0, 0.0, 0.0, f"crash:{type(e).__name__}", b"", b"")


# ---------------------------------------------------------------------------
# statistics


def tail_of(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    pos = len(ordered) - TAIL_BEYOND - 1
    if pos < 0:
        raise BenchError(f"{len(values)} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[pos], 100.0 * (pos + 1) / len(ordered)


def _per_input_medians(samples: list[list[float]]) -> list[float]:
    return [statistics.median(s) for s in samples]


@dataclass
class RunState:
    """Timings and outcomes gathered over a run, indexed by pool input."""

    pool: int
    encode: list[list[float]] = field(default_factory=list)
    decode: list[list[float]] = field(default_factory=list)
    total: list[list[float]] = field(default_factory=list)
    traced_total: list[list[float]] = field(default_factory=list)
    first: list[TrialResult | None] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    crashes: int = 0
    nondeterministic: int = 0
    stages: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("encode", "decode", "total", "traced_total"):
            setattr(self, name, [[] for _ in range(self.pool)])
        self.first = [None] * self.pool

    def record(self, index: int, res: TrialResult, traced: bool = False) -> None:
        self.attempted += 1
        if res.stage is not None:
            self.failed += 1
            self.stages[res.stage] = self.stages.get(res.stage, 0) + 1
            self.mismatches += res.stage == "mismatch"
            self.crashes += res.stage.startswith("crash:")
        if traced:
            self.traced_total[index].append(res.total_s)
        else:
            self.encode[index].append(res.encode_s)
            self.decode[index].append(res.decode_s)
            self.total[index].append(res.total_s)
        # later repetitions of an input must reproduce the first one exactly
        outcome = (res.codeword, res.decoded, res.stage)
        if self.first[index] is None:
            self.first[index] = res
        elif (self.first[index].codeword, self.first[index].decoded, self.first[index].stage) != outcome:
            self.nondeterministic += 1

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.crashes == 0 and self.nondeterministic == 0

    def digest(self) -> str:
        """SHA-256 over each pool input's codeword, decoded track and failure stage, in order."""
        h = hashlib.sha256()
        for res in self.first:
            for part in (res.codeword, res.decoded, (res.stage or "ok").encode()):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    record: dict


def _setup(src: Path, workload: Workload, seed: int, scratch: Path):
    t0 = perf_counter()
    rt = load_rtcodec(src)
    ctx = Context(rt, workload, seed, scratch)
    run_trial(ctx, ctx.pool[0])  # warm-up, not recorded
    return perf_counter() - t0, ctx


def run(workload: Workload, seed: int, seconds: float, trace: bool, src: Path, out_dir: Path) -> RunResult:
    """Set up, measure for ``seconds`` (at least one pass over the pool), summarise."""
    if seed < 0:
        raise BenchError("seed must be non-negative")
    if workload.pool <= TAIL_BEYOND:
        raise BenchError(f"pool of {workload.pool} leaves no tail percentile")
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"scratch-{workload.name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds_taken, ctx = _setup(src, workload, seed, scratch)
            setups.append(seconds_taken)
        state = RunState(workload.pool)
        tracer = Tracer() if trace else None
        deadline = perf_counter() + seconds
        i = 0
        while i < workload.pool or perf_counter() < deadline:
            idx = i % workload.pool
            inp = ctx.pool[idx]
            state.record(idx, run_trial(ctx, inp))
            if tracer is not None:
                with tracer:
                    res = tracer.run_trial(i, run_trial, ctx, inp)
                state.record(idx, res, traced=True)
            i += 1
        if tracer is not None:
            tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return summarise(workload, ctx, state, setups, tracer)


def _share(pool: list[TrialInput], prop: str) -> float:
    return sum(getattr(inp, prop) for inp in pool) / len(pool)


def summarise(workload, ctx, state: RunState, setups, tracer) -> RunResult:
    enc = _per_input_medians(state.encode)
    dec = _per_input_medians(state.decode)
    tot = _per_input_medians(state.total)
    enc_tail, tail_pct = tail_of(enc)
    dec_tail, _ = tail_of(dec)
    layout = ctx.layout
    fail_rate = state.failed / state.attempted
    e2e = {
        "encode_ms.p50": 1e3 * statistics.median(enc),
        "encode_ms.tail": 1e3 * enc_tail,
        "decode_ms.p50": 1e3 * statistics.median(dec),
        "decode_ms.tail": 1e3 * dec_tail,
        "decode_kbit_s": len(dec) * workload.n / 1e3 / sum(dec),
        "trials_per_s": len(tot) / sum(tot),
        "redundancy": (layout.total - workload.n) / workload.n,
        "success_rate": 1.0 - fail_rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": workload.name,
        "params": {"mode": workload.mode, "n": workload.n, "k": workload.k, "d": workload.d,
                   "via": workload.via, "regime": ctx.params.regime, "N": layout.total},
        "samples": workload.pool,
        "repetitions": sum(len(s) for s in state.total),
        "tail_percentile": tail_pct,
        "fail_rate": fail_rate,
        "stage_histogram": dict(sorted(state.stages.items())),
        "mismatches": state.mismatches,
        "crashes": state.crashes,
        "nondeterministic": state.nondeterministic,
        "digest": state.digest(),
        "setup_runs_s": setups,
        "class_counts": [sum(1 for inp in ctx.pool if inp.cls == c) for c in range(len(workload.mix))],
        "r2_gain_share": _share(ctx.pool, "r2_gain"),
        "straddle_share": _share(ctx.pool, "straddle"),
        "end_to_end": e2e,
        "samples_s": {"encode": state.encode, "decode": state.decode, "trial": state.total},
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer = per_layer(tracer, ctx, state)
        record["per_layer"] = layer
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return RunResult(state.correct, state.attempted, state.failed, metrics, record)


def per_layer(tracer: Tracer, ctx, state: RunState) -> dict[str, float]:
    """Per-trial means of every layer's self time and counters, from the spans."""
    selfs, calls, roots = tracer.self_times(), tracer.call_counts(), tracer.root_times()
    trials = sorted(roots)
    count = len(trials)
    out: dict[str, float] = {}
    for layer in (ROOT_LAYER, *FUNCTION_LAYERS, *METHOD_LAYERS.values()):
        out[f"{layer}.self_ms"] = 1e3 * sum(selfs[t].get(layer, 0.0) for t in trials) / count
        out[f"{layer}.calls"] = sum(calls[t].get(layer, 0) for t in trials) / count
    for name in COUNTERS:
        out[name] = sum(tracer.counters[t].get(name, 0) for t in trials) / count
    # a distrust choice is visible from public functions once it reaches restore
    choices = sum(
        1 for i, s in enumerate(tracer.spans) if s[LAYER] == "layout.restore" and tracer.inside(i, "decode_edits")
    )
    edit_decodes = [s for s in tracer.spans if s[FUNC] == "decode_edits"]
    out["editcodec.choices_per_decode"] = choices / len(edit_decodes) if edit_decodes else 0.0
    out["editcodec.choice_yield"] = sum(1 for s in edit_decodes if s[OK]) / choices if choices else 0.0
    out["layout.f_len_bits"] = ctx.layout.f_len
    out["layout.n1_bits"] = ctx.layout.n1
    out["layout.n2_bits"] = ctx.layout.n2
    out["trial.traced_ms"] = 1e3 * sum(roots[t] for t in trials) / count
    out["workload.r2_gain_share"] = _share(ctx.pool, "r2_gain")
    out["workload.straddle_share"] = _share(ctx.pool, "straddle")
    out["workload.restore_share"] = sum(1 for t in trials if calls[t].get("layout.restore", 0)) / count
    untraced = sum(sum(s) for s in state.total) / sum(len(s) for s in state.total)
    traced = sum(sum(s) for s in state.traced_total) / sum(len(s) for s in state.traced_total)
    out["trace.overhead"] = traced / untraced - 1.0
    return out
