"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, layer, start and end (perf_counter
seconds), the span that was open when it started, the job or request it
belongs to, and an optional work count (samples or realizations requested).
Spans stay in memory until the run ends and are then written out as JSON
lines.  Only names that cross a module boundary are wrapped; private kernels
stay untraced.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: str | None
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, count_param: str | None = None):
        """fn wrapped so that every call records a span.

        With count_param, the span also records that argument of the call
        (default values included), such as the sample count n.
        """
        signature = inspect.signature(fn) if count_param else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count = int(bound.arguments[count_param])
            with self._id_lock:
                self._next_id += 1
                span_id = self._next_id
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, layer, start, end, parent, self.job, count)
                )

        return traced

    def patch(self, module, name: str, layer: str, count_param: str | None = None) -> None:
        """Replace module.name by a traced wrapper until restore()."""
        original = getattr(module, name)
        self._patched.append((module, name, original))
        setattr(module, name, self.wrap(layer, f"{module.__name__}.{name}", original, count_param))

    def restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def top_level(spans: list[Span], layer: str) -> list[Span]:
    """Spans of the layer whose parent span belongs to another layer."""
    by_id = {s.id: s for s in spans}
    return [
        s
        for s in spans
        if s.layer == layer
        and (s.parent is None or s.parent not in by_id or by_id[s.parent].layer != layer)
    ]
