"""Smoke test of the benchmark's own code at small paper-exact sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import core
from perfbench.core import END_TO_END, PER_LAYER, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the shipped workloads at n=32, plus the deletion pair regime through the API
SMALL = {
    name: Workload(f"{name}-small", w.mode, 32, w.k, w.d, w.via, w.mix) for name, w in core.WORKLOADS.items()
}
SMALL["del-pair"] = Workload("del-pair-small", "del", 32, 2, 2, "api", (15, 15, 10))

# layers that run on every trial of a workload of this kind
ALWAYS = {
    "common": [
        "periodicity.cap", "periodicity.uncap", "algebra.rep_decode", "algebra.rep_encode",
        "layout.parity", "layout.pack", "hashing.hash", "model.channel", "delcodec", "bits.agreement_runs",
    ],
    "del": ["delsync.report", "delsync.identify", "delsync.align"],
    "edit": ["editsync.report", "editsync.identify", "editsync.outside", "editcodec", "bits.verify", "layout.restore"],
    "cli": ["cli", "files.write", "files.read"],
}


def _run(workload, tmp_path, trace, seed=3):
    return core.run(workload, seed, 0.0, trace, SRC, tmp_path / "out")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(core.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_metrics(name, tmp_path):
    result = _run(SMALL[name], tmp_path, trace=False)
    assert result.correct and result.failed == 0
    assert result.attempted == SMALL[name].pool
    assert list(result.metrics) == list(END_TO_END)
    for metric, body in result.metrics.items():
        assert body["unit"] == END_TO_END[metric]
        assert math.isfinite(body["value"]) and body["value"] > 0, metric
    assert result.record["tail_percentile"] == 75.0
    assert result.record["samples"] == SMALL[name].pool == 40
    assert result.record["class_counts"] == list(SMALL[name].mix)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_per_layer_metrics_and_self_time_sum(name, tmp_path):
    workload = SMALL[name]
    result = _run(workload, tmp_path, trace=True)
    assert result.correct
    assert list(result.metrics) == list(PER_LAYER)
    assert all(body["unit"] == PER_LAYER[m] for m, body in result.metrics.items())
    layer = result.record["per_layer"]
    kinds = ["common", workload.mode] + (["cli"] if workload.via == "cli" else [])
    for kind in kinds:
        for name_ in ALWAYS[kind]:
            assert layer[f"{name_}.calls"] > 0, name_
            assert layer[f"{name_}.self_ms"] > 0, name_
    if workload.via == "cli":
        assert layer["files.bytes"] > 0
    if workload.mode == "edit":
        assert layer["editcodec.choices_per_decode"] >= 1
        assert 0 < layer["editcodec.choice_yield"] <= 1
    # self times of all layers add up to the traced trial time
    total_self = sum(v for k, v in layer.items() if k.endswith(".self_ms"))
    assert total_self == pytest.approx(layer["trial.traced_ms"], rel=1e-9)
    assert (tmp_path / "out" / f"spans-{workload.name}-seed3.jsonl").stat().st_size > 0


def test_digest_repeats_for_a_seed(tmp_path):
    w = SMALL["del-pair"]
    first = _run(w, tmp_path, trace=False).record["digest"]
    assert _run(w, tmp_path, trace=False).record["digest"] == first
    assert _run(w, tmp_path, trace=False, seed=4).record["digest"] != first


@pytest.mark.parametrize("mix", [(15, 15, 10), (10, 30), (3, 0, 1, 7)])
def test_slot_classes_hold_the_mix_evenly(mix):
    slots = core.slot_classes(mix)
    assert [slots.count(c) for c in range(len(mix))] == list(mix)
    for c, want in enumerate(mix):
        for end in range(1, len(slots) + 1):  # every prefix holds its share to within one
            assert abs(slots[:end].count(c) - want * end / len(slots)) < 1


def test_pattern_properties_follow_the_class(tmp_path):
    record = _run(SMALL["edit-rs"], tmp_path, trace=False).record
    assert record["r2_gain_share"] == 30 / 40
    record = _run(Workload("straddle", "del", 32, 2, 2, "api", (8, 12, 0)), tmp_path, trace=False).record
    assert record["straddle_share"] == 12 / 20


def test_silent_wrong_decode_fails_the_run(tmp_path, monkeypatch):
    load = core.load_rtcodec

    def sabotaged(src):
        rt = load(src)
        decode = rt.decode_deletions
        rt.decode_deletions = lambda reads, params: 1 - decode(reads, params)
        return rt

    monkeypatch.setattr(core, "load_rtcodec", sabotaged)
    result = _run(SMALL["del-pair"], tmp_path, trace=False)
    assert not result.correct
    assert result.record["mismatches"] == result.failed == SMALL["del-pair"].pool
    assert result.record["stage_histogram"] == {"mismatch": SMALL["del-pair"].pool}


def test_tail_is_highest_order_statistic_with_ten_beyond():
    values = list(np.arange(40.0))
    assert core.tail_of(values) == (29.0, 75.0)
    with pytest.raises(core.BenchError):
        core.tail_of(values[:10])


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-rs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
