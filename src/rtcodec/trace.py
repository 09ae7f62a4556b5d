"""One diagnostics channel for the decoders.

A ``Trace`` holds the seconds spent in each named stage, a counter per name,
and an ordered list of ``(kind, fields)`` events. Decoders record into the
trace they are given, or into a throwaway one; what they compute and return
never depends on it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Trace:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self.counters: Counter[str] = Counter()
        self.events: list[tuple[str, dict]] = []

    @contextmanager
    def stage(self, name: str):
        """Add the time spent inside the block to stage ``name``, also when it raises."""
        start = perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + perf_counter() - start

    def event(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))

    def to_dict(self) -> dict:
        """JSON-ready form; bit arrays in event fields become their lengths."""
        return {
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "events": [{"kind": kind, **_jsonable(fields)} for kind, fields in self.events],
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return len(value)
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
