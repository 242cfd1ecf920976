"""In-memory span recorder and self-time arithmetic for the traced runs.

A span is (name, start, end, parent, rep): `parent` is the index of the
enclosing span or None for a root span, and `rep` is the replication index
for simulation spans or the invocation index for CLI spans.  Spans are
recorded only by the benchmark, around its calls into the package, and are
written to a JSON file when the traced run ends.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rep: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def unattributed(spans, start: float, end: float) -> float:
    """Time in [start, end] that no root span covers."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent is None]
    return (end - start) - _covered([iv for iv in roots if iv[1] > iv[0]])


class Tracer:
    """Records nested spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), math.nan, parent, rep)
        self.spans.append(s)
        self._open.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def by_name(self) -> dict:
        """name -> (call count, total self seconds)."""
        out = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            n, total = out.get(s.name, (0, 0.0))
            out[s.name] = (n + 1, total + own)
        return out

    def write(self, path: Path, meta: dict, window: tuple) -> None:
        own = self_times(self.spans)
        doc = {
            "meta": meta,
            "window": list(window),
            "unattributed_s": unattributed(self.spans, *window),
            "fields": ["name", "start", "end", "parent", "rep", "self"],
            "spans": [[s.name, s.start, s.end, s.parent, s.rep, t] for s, t in zip(self.spans, own)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def no_span(name: str, rep: Optional[int] = None):
    """Stand-in for Tracer.span when a run is not traced."""
    yield None
