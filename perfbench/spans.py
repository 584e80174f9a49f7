"""Span recording, function wrapping and the statistics the benchmark reports.

The benchmark measures the program from the outside: it wraps a layer's
public functions by replacing the name where the caller looks it up, records
one span per call in memory, and restores the originals afterwards.  Nothing
under ``src/`` is edited.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Spans nest per thread, so a call made from a thread pool
or a pump thread has the span open on that thread as its parent.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One finished call of a wrapped function."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; the per-thread stack gives each its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: while set, wrapped calls run without a span (the output checks)
        self.paused = False
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``on_result(attrs, args, kwargs, result)`` may add attributes once
        the call returns.  A call that raises still records its span.
        """
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append(Span(name, span_id, parent, start, end, attrs))


class Patches:
    """A set of wrapped names that can be installed and restored together.

    Each entry replaces ``owner.attr`` (a module global, a method or a
    staticmethod on a class) with a wrapper that records a span through
    ``recorder``.  :meth:`restore` puts back the exact original objects, so
    a restored program runs the code it ran before :meth:`install`.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._entries: list[tuple[object, str, str, Callable | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, owner, attr: str, name: str, on_result=None) -> "Patches":
        self._entries.append((owner, attr, name, on_result))
        return self

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, on_result in self._entries:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, on_result))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw, name: str, on_result):
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, on_result)

        return staticmethod(wrapper) if is_static else wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.duration - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total time and total self time (seconds)."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["self"] += selfs[span.span_id]
    return out


def percentile(values, q: float) -> tuple[float, int, int]:
    """Nearest-rank percentile of ``values``.

    Returns ``(value, samples, beyond)``: the sample at rank
    ``ceil(q / 100 * samples)`` of the sorted values, the sample count, and
    how many samples rank above it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # q * n first: for whole q the product is exact, so 90 * 10 / 100 is 9.0
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1], len(ordered), len(ordered) - rank
