"""CLI: file round trips, worked-example corruption, exit codes, determinism."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from rtcodec.bits import format_track
from rtcodec.cli import main
from rtcodec.files import read_matrix, read_track, write_matrix
from rtcodec.model import ReadMatrix
from rtcodec.params import CodeParams


def write_random_track(path: Path, n: int, seed: int) -> None:
    rng = random.Random(seed)
    bits = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
    path.write_text(format_track(bits))


def test_encode_corrupt_decode_roundtrip(tmp_path):
    msg = tmp_path / "msg.track"
    write_random_track(msg, 256, 1)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    out = tmp_path / "back.track"
    report = tmp_path / "report.json"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "7"]) == 0
    assert main(
        ["decode", "--in", str(mat), "--sidecar", str(cw) + ".json", "--out", str(out), "--report", str(report)]
    ) == 0
    assert msg.read_text() == out.read_text()
    assert json.loads(report.read_text())["ok"] is True


def test_corrupt_reproduces_worked_example(tmp_path):
    """Explicit head-1 deletion list reproduces the three-head read matrix."""
    msg = tmp_path / "c.track"
    bits = np.array([1, 1, 0, 1, 0, 0, 0, 1, 0, 1], dtype=np.uint8)
    msg.write_text(format_track(bits))
    cw = tmp_path / "c.cw"
    # geometry t=(1,2) via relaxed params; the codeword is not needed, only the
    # channel, so encode a copy of the message as a "codeword" by hand
    from rtcodec.files import write_codeword
    from rtcodec.model import HeadGeometry
    from rtcodec.params import CodeParams

    params = CodeParams(
        n=10, k=3, geometry=HeadGeometry((1, 2)), kind="deletion", mode="relaxed",
        T=7, block_len=5,
    )
    write_codeword(cw, bits, params)
    mat = tmp_path / "ex.mat"
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--delta1", "2,5,7"]) == 0
    M = read_matrix(mat)
    assert M.rows.tolist() == [
        [1, 0, 1, 0, 1, 0, 1],
        [1, 1, 1, 0, 0, 0, 1],
        [1, 1, 0, 1, 0, 0, 0],
    ]


def test_decode_truncated_file_is_io_error(tmp_path):
    msg = tmp_path / "msg.track"
    write_random_track(msg, 128, 2)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "3"]) == 0
    # truncate the matrix file mid-row
    text = mat.read_text()
    mat.write_text(text[: len(text) // 2])
    rc = main(["decode", "--in", str(mat), "--sidecar", str(cw) + ".json", "--out", str(tmp_path / "x")])
    assert rc == 4
    assert main(["corrupt", "--in", str(tmp_path / "missing.track"), "--out", str(mat)]) == 4


def test_decode_failure_exit_code(tmp_path):
    msg = tmp_path / "msg.track"
    write_random_track(msg, 128, 3)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "4"]) == 0
    # chop whole columns off every row: decode must fail cleanly
    lines = mat.read_text().splitlines()
    head = lines[0].split()
    cols = int(head[2].split("=")[1]) - 40
    rows = [ln[:-40] for ln in lines[1:]]
    mat.write_text(f"{head[0]} {head[1]} cols={cols}\n" + "\n".join(rows) + "\n")
    rc = main(["decode", "--in", str(mat), "--sidecar", str(cw) + ".json", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_trial_report_deterministic(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "del",
        "n": 256,
        "k": 2,
        "d": 2,
        "trials": 5,
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["trial", "--config", str(cfg_path), "--out", str(r1), "--stable-report"]) == 0
    assert main(["trial", "--config", str(cfg_path), "--out", str(r2), "--stable-report"]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["successes"] == 5 and doc["success_rate"] == 1.0
    assert "wall_clock_s" not in doc
    assert doc["redundancy"]["N"] - doc["redundancy"]["n"] == doc["redundancy"]["overhead_bits"]


def test_trial_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "del", "n": 64, "k": 2, "d": 2, "bogus": 1}))
    assert main(["trial", "--config", str(cfg_path)]) == 3
    # a config that is not a JSON object is a config error, not a traceback
    for bad in (["n"], 5):
        cfg_path.write_text(json.dumps(bad))
        assert main(["trial", "--config", str(cfg_path)]) == 3


def test_oracle_hasher_and_fsweep(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "hasher", "--hash", "coloring", "--m", "6", "--k", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == 0 and doc["checked"] > 0
    assert main(["oracle", "fsweep", "--max-n", "8", "--max-k", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["violations"] == 0


def test_oracle_ball_disjoint(tmp_path):
    cfg = tmp_path / "ball.json"
    cfg.write_text(
        json.dumps(
            {"n": 16, "k": 1, "d": 2, "t": 20, "paper_exact": False,
             "hash": "vt", "block_len": 8, "count": 6, "seed": 5}
        )
    )
    out = tmp_path / "ball-report.json"
    assert main(["oracle", "ball-disjoint", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["disjoint"] is True and doc["pairs"] == 15
    # the oracle builds deletion balls only, so any other mode is a config error
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "mode": "edit"}))
    assert main(["oracle", "ball-disjoint", "--config", str(cfg), "--out", str(out)]) == 3
    # so is a config that is not a JSON object
    for bad in (["n"], 5):
        cfg.write_text(json.dumps(bad))
        assert main(["oracle", "ball-disjoint", "--config", str(cfg), "--out", str(out)]) == 3


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    return err


UNSERVED = {"mode": "del", "n": 64, "k": 2, "d": 2, "t": 30, "paper_exact": False}


@pytest.mark.parametrize(
    "oracle,cfg",
    [
        (False, {**UNSERVED, "hash": "coloring", "block_len": 40}),  # block wider than the coloring budget
        (False, {**UNSERVED, "hash": "vt", "block_len": 12}),  # vt corrects one error, k is 2
        (True, {"n": 16, "k": 2, "d": 2, "t": 20, "paper_exact": False, "hash": "vt", "block_len": 8}),
    ],
    ids=["trial-coloring", "trial-vt", "ball-disjoint-vt"],
)
def test_hasher_that_cannot_serve_the_code_is_config_error(tmp_path, capsys, oracle, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["oracle", "ball-disjoint", "--config", str(path)] if oracle else ["trial", "--config", str(path)]) == 3
    assert_one_error_line(capsys)


def test_oracle_hasher_config_errors(capsys):
    """A hasher that cannot serve k exits 3 with its own message, and so does a
    negative block length or error count."""
    capsys.readouterr()
    assert main(["oracle", "hasher", "--hash", "vt", "--m", "6", "--k", "2"]) == 3
    assert "vt hasher corrects exactly one error" in assert_one_error_line(capsys)
    for m, k in (("-1", "1"), ("4", "-1")):
        assert main(["oracle", "hasher", "--hash", "coloring", "--m", m, "--k", k]) == 3
        assert_one_error_line(capsys)


@pytest.mark.parametrize("flag,key", [("--period-bound", "T"), ("--block-len", "block_len")])
def test_paper_exact_code_takes_no_period_bound_or_block_length(tmp_path, capsys, flag, key):
    """The paper sets T and the block length; only a relaxed code takes them,
    from the encode flags or from a trial config."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 64, 2)
    encode = ["encode", "--in", str(msg), "--out", str(tmp_path / "cw.track"), "--k", "2", "--d", "2", flag, "50"]
    capsys.readouterr()
    assert main(encode) == 3
    assert_one_error_line(capsys)
    assert main([*encode, "--relaxed", "--t", "40"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "del", "n": 64, "k": 2, "d": 2, key: 50}))
    capsys.readouterr()
    assert main(["trial", "--config", str(cfg), "--trials", "1"]) == 3
    assert_one_error_line(capsys)


@pytest.mark.parametrize("key,value", [("T", 3), ("block_len", 40)])
def test_corrupt_rejects_paper_exact_sidecar_with_other_settings(tmp_path, capsys, key, value):
    msg = tmp_path / "msg.track"
    write_random_track(msg, 64, 3)
    cw = tmp_path / "cw.track"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    path = Path(str(cw) + ".json")
    doc = json.loads(path.read_text())
    doc["params"][key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["corrupt", "--in", str(cw), "--out", str(tmp_path / "r.mat")]) == 3
    assert_one_error_line(capsys)


MISSING = object()


@pytest.mark.parametrize(
    "key,value",
    [
        ("t", [5]),
        ("k", "2"),
        ("symbol_bits", 12),
        ("k", MISSING),
        ("params", MISSING),
        ("schema_version", 99),
        ("json", '{"schema_version": 1,'),
        ("symbol_bits", 16),
        ("rlayer_hash_mode", "vt"),
        ("coloring_budget", 12),
        ("T", 3),
        ("block_len", 40),
    ],
)
def test_decode_bad_sidecar_is_config_error(tmp_path, capsys, key, value):
    """A sidecar that is not JSON, has the wrong schema, or whose parameters are
    missing, out of range or of the wrong type exits 3 with one line. So does a
    removed setting at any value but the one it could take."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 128, 5)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "6"]) == 0
    doc = json.loads(Path(str(cw) + ".json").read_text())
    if key in ("schema_version", "json"):
        doc[key] = value
    elif value is not MISSING:
        doc["params"][key] = value
    elif key == "params":
        del doc["params"]
    else:
        del doc["params"][key]
    sidecar = tmp_path / "bad.json"
    sidecar.write_text(value if key == "json" else json.dumps(doc))
    capsys.readouterr()
    rc = main(["decode", "--in", str(mat), "--sidecar", str(sidecar), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_decode_accepts_sidecar_with_removed_settings(tmp_path):
    """A sidecar that still carries the removed settings, at the one value each
    could take, decodes to the message."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 128, 8)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    out = tmp_path / "back.track"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    path = Path(str(cw) + ".json")
    doc = json.loads(path.read_text())
    doc["params"].update({"rlayer_hash_mode": "identity", "symbol_bits": 8, "coloring_budget": 16})
    path.write_text(json.dumps(doc))
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "3"]) == 0
    assert main(["decode", "--in", str(mat), "--sidecar", str(path), "--out", str(out)]) == 0
    assert out.read_text() == msg.read_text()


@pytest.mark.parametrize(
    "mode,counts,drift",
    [
        ("del", [], -2),
        ("del", ["--r", "1"], -1),
        ("del", ["--r", "0", "--s", "0"], 0),
        ("edit", ["--r", "2"], -2),
        ("edit", ["--s", "2"], 2),
        ("edit", ["--r", "1", "--s", "1"], 0),
    ],
)
def test_corrupt_sampled_counts_set_the_drift(tmp_path, mode, counts, drift):
    """Sampled reads are s - r bits longer than the codeword: a deletion code
    takes --r (default k), and a lone count on an edit code takes 0 for the other."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 64, 6)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--mode", mode, "--k", "2", "--d", "2"]) == 0
    for seed in range(1, 5):
        assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", str(seed), *counts]) == 0
        assert read_matrix(mat).cols - len(read_track(cw)) == drift


@pytest.mark.parametrize("sidecar", ["[1, 2]", '{"schema_version": 1}', "schema_version=99", '{"schema_version": 1,'])
def test_corrupt_bad_sidecar_is_config_error(tmp_path, capsys, sidecar):
    """A sidecar that is not JSON or not an object, has the wrong schema, or has
    no parameters, exits 3 with one line."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 64, 4)
    cw = tmp_path / "cw.track"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    path = Path(str(cw) + ".json")
    if sidecar == "schema_version=99":  # the encoder's own sidecar, but another schema
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        sidecar = json.dumps(doc)
    path.write_text(sidecar)
    capsys.readouterr()
    assert main(["corrupt", "--in", str(cw), "--out", str(tmp_path / "r.mat")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "pattern",
    [
        ["--delta1", "a,3"],
        ["--delta1", "3,3"],
        ["--delta1", "3", "--gamma1", "5,b"],
        ["--delta1", "3", "--gamma1", "5", "--ins-bits", "x,1"],
        ["--delta1", "3", "--gamma1", "5", "--ins-bits", "2,1"],
        ["--delta1", "3", "--gamma1", "5"],
        ["--s", "1"],  # a deletion code's reads take no insertions
    ],
)
def test_corrupt_bad_pattern_is_config_error(tmp_path, capsys, pattern):
    """A position or inserted-bit list that does not parse or does not fit the
    heads, or an insertion count for a deletion code, exits 3 with one line."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 64, 5)
    cw = tmp_path / "cw.track"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]) == 0
    capsys.readouterr()
    assert main(["corrupt", "--in", str(cw), "--out", str(tmp_path / "r.mat"), *pattern]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mode,k,d", [("del", "2", "2"), ("edit", "4", "2")])
def test_decode_report_carries_trace(tmp_path, mode, k, d):
    """The report holds the decode trace on success and on a failure at input."""
    msg = tmp_path / "msg.track"
    write_random_track(msg, 256, 9)
    cw = tmp_path / "cw.track"
    mat = tmp_path / "reads.mat"
    report = tmp_path / "report.json"
    assert main(["encode", "--in", str(msg), "--out", str(cw), "--mode", mode, "--k", k, "--d", d]) == 0
    assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "3"]) == 0
    decode = ["decode", "--in", str(mat), "--sidecar", str(cw) + ".json", "--out", str(tmp_path / "x"),
              "--report", str(report)]
    assert main(decode) == 0
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert {"bootstrap", "sync", "intervals", "finish" if mode == "del" else "choices"} <= set(doc["trace"]["stages"])
    assert any(ev["kind"] == "interval" for ev in doc["trace"]["events"])
    # one repetition decode of R2, counted under the path that answered it
    rep_paths = {name: n for name, n in doc["trace"]["counters"].items() if name.startswith("rep.")}
    assert sum(rep_paths.values()) == 1 and set(rep_paths) <= {"rep.parse_up", "rep.parse_nearest", "rep.dp"}

    reads = read_matrix(mat)
    write_matrix(mat, ReadMatrix(reads.rows[:, :-20], kind=reads.kind))
    assert main(decode) == 2
    doc = json.loads(report.read_text())
    assert doc["ok"] is False and doc["stage"] == "input"
    assert set(doc["trace"]["stages"]) == {"bootstrap"}
    assert doc["trace"]["events"] == []


def test_repeated_main_calls_do_not_share_state(tmp_path):
    """One parser serves every call; flags of one call never reach the next."""
    from rtcodec.cli import build_parser

    assert build_parser() is build_parser()
    msg = tmp_path / "msg.track"
    write_random_track(msg, 128, 8)
    args = ["encode", "--in", str(msg), "--d", "2"]
    runs = {
        "edit": ["--k", "1", "--mode", "edit", "--hash", "vt"],
        "relaxed": ["--k", "2", "--relaxed", "--t", "40"],
        "plain": ["--k", "2"],
    }
    for name, extra in runs.items():
        assert main([*args, "--out", str(tmp_path / name), *extra]) == 0
        assert main(["oracle", "fsweep", "--max-n", "4", "--max-k", "1", "--out", str(tmp_path / "o.json")]) == 0
    seen = {}
    for name in runs:
        p = json.loads((tmp_path / f"{name}.json").read_text())["params"]
        seen[name] = (p["kind"], p["mode"], p["hash_mode"], p["t"])
    assert seen["edit"][:3] == ("edit", "paper-exact", "vt")
    assert seen["relaxed"] == ("deletion", "relaxed", "identity", [40])
    assert seen["plain"][:3] == ("deletion", "paper-exact", "identity")
    assert seen["plain"][3] == list(CodeParams.deletion(128, 2, 2).geometry.distances)


def test_trial_records_crashes(tmp_path, monkeypatch):
    """A decoder bug is a failed trial with stage crash:<Type>, and the campaign fails."""
    from rtcodec import harness

    def broken(matrix, params):
        raise IndexError("decoder bug")

    monkeypatch.setattr(harness, "decode_deletions", broken)
    cfg = {"mode": "del", "n": 64, "k": 2, "d": 2, "trials": 3, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["trial", "--config", str(cfg_path), "--out", str(out), "--stable-report"]) == 2
    doc = json.loads(out.read_text())
    assert doc["successes"] == 0
    assert doc["stage_histogram"] == {"crash:IndexError": 3}


@pytest.mark.parametrize("step", ["encode", "decode"])
def test_internal_error_exits_5_with_one_line(tmp_path, monkeypatch, capsys, step):
    """An exception that is not a library error ends in one error line and
    exit code 5, not a traceback."""
    from rtcodec import cli

    def broken(*args):
        raise IndexError("codec bug")

    msg, cw, mat = tmp_path / "msg.track", tmp_path / "cw.track", tmp_path / "reads.mat"
    write_random_track(msg, 128, 3)
    encode = ["encode", "--in", str(msg), "--out", str(cw), "--k", "2", "--d", "2"]
    if step == "decode":
        assert main(encode) == 0
        assert main(["corrupt", "--in", str(cw), "--out", str(mat), "--seed", "1"]) == 0
    monkeypatch.setattr(cli, f"{step}_deletions", broken)
    capsys.readouterr()
    if step == "encode":
        argv = encode
    else:
        argv = ["decode", "--in", str(mat), "--sidecar", str(cw) + ".json", "--out", str(tmp_path / "out.track")]
    assert main(argv) == 5
    assert capsys.readouterr().err == "error: internal: IndexError: codec bug\n"
