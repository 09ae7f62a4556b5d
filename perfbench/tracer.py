"""Span recorder that wraps rtcodec's public functions from outside the package.

While a ``Tracer`` is installed, every module-level binding of a wrapped
function inside the loaded ``rtcodec`` modules points at a recording wrapper
(so ``from .algebra import rep_decode`` copies are covered too), and hasher
methods are wrapped on their classes. Nothing under ``src/`` changes; leaving
the ``with`` block restores every binding.

Spans are kept in memory as tuples and written out only when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# layer name -> (module, function) pairs wrapped under that name
FUNCTION_LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cli", "main"),),
    "files.write": (("files", "write_track"), ("files", "write_codeword"), ("files", "write_matrix")),
    "files.read": (("files", "read_track"), ("files", "read_codeword"), ("files", "read_matrix")),
    "delcodec": (
        ("delcodec", "encode_deletions"),
        ("delcodec", "encode_layered"),
        ("delcodec", "decode_deletions"),
        ("delcodec", "deletion_layout"),
    ),
    "editcodec": (("editcodec", "encode_edits"), ("editcodec", "decode_edits"), ("editcodec", "edit_layout")),
    "periodicity.cap": (("periodicity", "cap_periods"),),
    "periodicity.uncap": (("periodicity", "uncap_periods"),),
    "algebra.rep_encode": (("algebra", "rep_encode"),),
    "algebra.rep_decode": (("algebra", "rep_decode"),),
    "layout.parity": (("layout", "parity_groups_pair"), ("layout", "parity_groups_rs")),
    "layout.restore": (("layout", "restore_pair"), ("layout", "restore_rs")),
    "layout.pack": (
        ("layout", "pack_group"),
        ("layout", "unpack_group"),
        ("layout", "groups_to_bits"),
        ("layout", "bits_to_groups"),
    ),
    "delsync.report": (("delsync", "build_report"),),
    "delsync.identify": (("delsync", "identify_intervals"),),
    "delsync.count": (("delsync", "count_deletions_in_interval"),),
    "delsync.align": (("delsync", "align_and_recover_clean_bits"),),
    "delsync.recover": (("delsync", "recover_interval_multihead"),),
    "editsync.report": (("editsync", "build_edit_report"),),
    "editsync.identify": (("editsync", "identify_edit_intervals"),),
    "editsync.net_shift": (("editsync", "net_shift_of_interval"),),
    "editsync.outside": (("editsync", "recover_outside_bits"),),
    "editsync.reduce": (("editsync", "head_reduction_recover"),),
    "bits.agreement_runs": (("bits", "agreement_run_starts"),),
    "bits.verify": (("bits", "edit_distance_at_most"),),
    "model.channel": (("model", "apply_deletions"), ("model", "apply_edits")),
}

# hasher methods, wrapped on every concrete DeletionHasher subclass
METHOD_LAYERS = {"hash": "hashing.hash", "recover": "hashing.recover"}

# the benchmark's own per-trial root span; its self time is the glue between calls
ROOT_LAYER = "bench"

# span tuple fields
LAYER, START, END, PARENT, TRIAL, OK, FUNC = range(7)


def _count_result(counter):
    def hook(tracer, args, result):
        tracer.count(counter, len(result))

    return hook


def _count_substituted(tracer, args, result):
    # restore_rs returns (groups, substituted block indices); restore_pair substitutes none
    tracer.count("layout.restore.substituted", len(result[1]))


def _count_bytes(sidecar: bool):
    def hook(tracer, args, result):
        path = str(args[0]) + ".json" if sidecar else args[0]
        tracer.count("files.bytes", os.path.getsize(path))

    return hook


# (module, function) -> hook(tracer, args, result) run after a successful return
RESULT_HOOKS = {
    ("delsync", "identify_intervals"): _count_result("delsync.intervals"),
    ("editsync", "identify_edit_intervals"): _count_result("editsync.intervals"),
    ("layout", "restore_rs"): _count_substituted,
    ("files", "write_track"): _count_bytes(False),
    ("files", "write_matrix"): _count_bytes(False),
    ("files", "write_codeword"): _count_bytes(True),  # the track part is its nested write_track
    ("files", "read_track"): _count_bytes(False),
    ("files", "read_matrix"): _count_bytes(False),
    ("files", "read_codeword"): _count_bytes(True),
}

# layer -> counter bumped when a wrapped call raises
RAISE_COUNTERS = {
    "delsync.recover": "delsync.recover.failed",
    "editsync.reduce": "editsync.reduce.stuck",
}

COUNTERS = (
    "delsync.intervals",
    "delsync.recover.failed",
    "editsync.intervals",
    "editsync.reduce.stuck",
    "layout.restore.substituted",
    "files.bytes",
)


class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.trial = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording ----

    def count(self, name: str, value: int = 1) -> None:
        self.counters[self.trial][name] += value

    def _open(self, layer: str, func: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, perf_counter(), 0.0, parent, self.trial, False, func))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        layer, start, _, parent, trial, _, func = self.spans[idx]
        self.spans[idx] = (layer, start, end, parent, trial, ok, func)

    def run_trial(self, trial: int, fn, *args):
        """Run ``fn(*args)`` under a root span tagged with ``trial``."""
        self.trial = trial
        idx = self._open(ROOT_LAYER, "trial")
        try:
            return fn(*args)
        finally:
            self._close(idx, True)
            self.trial = -1

    def _wrap(self, layer: str, fn, func: str, hook=None):
        tracer = self
        raise_counter = RAISE_COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer, func)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(idx, False)
                if raise_counter:
                    tracer.count(raise_counter)
                raise
            tracer._close(idx, True)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # ---- patching ----

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "rtcodec" or name.startswith("rtcodec.")]
        by_name = {m.__name__: m for m in modules}
        for layer, targets in FUNCTION_LAYERS.items():
            for mod_name, attr in targets:
                # a function that a later refactor removes is skipped; its layer reads 0
                original = getattr(by_name.get(f"rtcodec.{mod_name}"), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original, attr, RESULT_HOOKS.get((mod_name, attr)))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
        hashing = by_name.get("rtcodec.hashing")
        if hashing is not None:
            base = hashing.DeletionHasher
            for cls in vars(hashing).values():
                if not (isinstance(cls, type) and issubclass(cls, base) and cls is not base):
                    continue
                for method, layer in METHOD_LAYERS.items():
                    if method in vars(cls):
                        original = vars(cls)[method]
                        self._patched.append((cls, method, original))
                        setattr(cls, method, self._wrap(layer, original, f"{cls.__name__}.{method}"))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- derived tables ----

    def self_times(self) -> dict[int, dict[str, float]]:
        """trial -> layer -> summed self seconds (span minus its child spans)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            out[span[TRIAL]][span[LAYER]] += span[END] - span[START] - child[i]
        return out

    def call_counts(self) -> dict[int, dict[str, int]]:
        """trial -> layer -> number of spans."""
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            out[span[TRIAL]][span[LAYER]] += 1
        return out

    def root_times(self) -> dict[int, float]:
        """trial -> duration of its root span."""
        return {s[TRIAL]: s[END] - s[START] for s in self.spans if s[LAYER] == ROOT_LAYER}

    def inside(self, idx: int, func: str) -> bool:
        """Whether span ``idx`` has an ancestor recorded for function ``func``."""
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][FUNC] == func:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path) -> None:
        """Spans as JSON lines: layer, start, end, parent index, trial, ok, function."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
