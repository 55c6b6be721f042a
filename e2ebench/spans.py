"""Span recording around public callables, and self-time arithmetic.

:class:`SpanRecorder` replaces a callable with a wrapper that records
``(id, parent, name, start, end)`` on every call.  Spans stay in memory
and are written as JSON lines, one file per process, when the process
ends; forked shard workers start an empty buffer of their own.  The
parent is the innermost recorded span open on the same thread, so a
span's *self time* is its duration minus the part covered by its
children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["SpanRecorder", "load_spans", "merge_self_times", "self_times"]


class SpanRecorder:
    """In-memory span buffer for one process."""

    def __init__(self, out_dir: str | os.PathLike, clock=time.perf_counter):
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn, name: str):
        """``fn`` wrapped so every call records one span named ``name``."""
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return wrapper

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) with its timed wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.timed(raw.__func__, name)))
        else:
            setattr(owner, attr, self.timed(raw, name))

    def reset_after_fork(self) -> None:
        """Drop the spans inherited from the parent process."""
        self.spans.clear()
        self._local = threading.local()

    def flush(self) -> Path:
        """Write this process's spans to ``spans-<pid>.jsonl``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        return path


def load_spans(path: str | os.PathLike) -> list[tuple]:
    """Spans of one process file, as ``(id, parent, name, start, end)``."""
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def self_times(spans, start: float = float("-inf"), end: float = float("inf")) -> dict:
    """Per-name ``{"self_s", "total_s", "calls"}`` over one process's spans.

    A span's self time is its duration minus the part of its interval
    its direct children cover.  Only spans that start inside
    ``[start, end)`` are counted; their children are subtracted either
    way, so a window cut never attributes a child's time to its parent.
    """
    by_id = {span[0]: span for span in spans}
    covered: dict[int, float] = {}
    for span_id, parent, _name, s0, s1 in spans:
        if parent < 0 or parent not in by_id:
            continue
        p0, p1 = by_id[parent][3], by_id[parent][4]
        overlap = min(s1, p1) - max(s0, p0)
        if overlap > 0:
            covered[parent] = covered.get(parent, 0.0) + overlap
    out: dict[str, dict] = {}
    for span_id, _parent, name, s0, s1 in spans:
        if not start <= s0 < end:
            continue
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["total_s"] += s1 - s0
        row["self_s"] += (s1 - s0) - covered.get(span_id, 0.0)
        row["calls"] += 1
    return out


def merge_self_times(tables) -> dict:
    """Sum per-name rows of several processes' :func:`self_times`."""
    out: dict[str, dict] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += row[key]
    return out
