"""On-disk formats: tracks, codewords with JSON sidecars, read matrices."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bits import BitArray, as_bits, format_track, parse_track
from .errors import ParamViolation
from .model import ReadMatrix
from .params import CodeParams

SCHEMA_VERSION = 1


def write_track(path, bits: BitArray) -> None:
    Path(path).write_text(format_track(as_bits(bits)))


def read_track(path) -> BitArray:
    return parse_track(Path(path).read_text())


def sidecar_path(codeword_path) -> Path:
    return Path(str(codeword_path) + ".json")


def write_codeword(path, bits: BitArray, params: CodeParams, layout_info: dict | None = None) -> None:
    write_track(path, bits)
    doc = {"schema_version": SCHEMA_VERSION, "params": params.to_dict()}
    if layout_info:
        doc["layout"] = layout_info
    sidecar_path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_sidecar(path) -> CodeParams:
    """The code parameters in a sidecar file.

    An unreadable file raises OSError; a file that is not a JSON object of
    this schema with valid parameters raises ParamViolation.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParamViolation(f"sidecar is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParamViolation("sidecar is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParamViolation(f"unsupported sidecar schema {doc.get('schema_version')}")
    return CodeParams.from_dict(doc.get("params"))


def read_codeword(path) -> tuple[BitArray, CodeParams]:
    return read_track(path), read_sidecar(sidecar_path(path))


def write_matrix(path, matrix: ReadMatrix) -> None:
    kind = "edit" if matrix.kind == "edit" else "del"
    lines = [f"kind={kind} rows={matrix.d} cols={matrix.cols}"]
    lines += [row.tobytes().decode("ascii") for row in (matrix.rows != 0).astype(np.uint8) + ord("0")]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> ReadMatrix:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("kind="):
        raise ValueError("missing read-matrix header")
    fields = dict(part.split("=", 1) for part in lines[0].split())
    kind = {"del": "deletion", "edit": "edit"}.get(fields.get("kind", ""))
    if kind is None:
        raise ValueError(f"unknown matrix kind {fields.get('kind')!r}")
    rows_n, cols = int(fields["rows"]), int(fields["cols"])
    if len(lines) - 1 != rows_n:
        raise ValueError(f"expected {rows_n} rows, found {len(lines) - 1}")
    if not rows_n:
        raise ValueError("read matrix has no rows")
    if any(len(ln) != cols for ln in lines[1:]):
        raise ValueError("malformed matrix row")
    # a non-ASCII character becomes "?", which the 0/1 check below rejects
    rows = np.frombuffer("".join(lines[1:]).encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if (rows > 1).any():
        raise ValueError("malformed matrix row")
    return ReadMatrix(rows.reshape(rows_n, cols), kind=kind)
