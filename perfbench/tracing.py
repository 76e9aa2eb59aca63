"""In-memory span tracer for the benchmark's traced run.

The tracer patches module attributes, so it records a call exactly where a
caller looks the name up: wrapping `duosc.engine.influence_form` sees the
calls the engine makes, not calls made from elsewhere.  Spans hold a name,
start, end, parent and thread; the parent is the innermost open span of the
same thread.  Spans stay in memory until the caller writes them out.

A name that no longer exists is skipped rather than treated as an error, so
a refactor that removes or stops calling a layer reads as zero calls.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = float("nan")
    #: exception class name when the traced call raised
    error: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "error": self.error, "counts": self.counts}


def _measure(fn: Callable, result) -> Optional[int]:
    # a layer whose return type changed under a refactor yields no count
    try:
        return int(fn(result))
    except (AttributeError, TypeError, IndexError, ValueError):
        return None


class Tracer:
    """Collects spans from patched callables; `restore` undoes the patches."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        sp = Span(id=sid, name=name, parent=stack[-1].id if stack else None,
                  thread=threading.get_ident(), start=perf_counter())
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def count(self, key: str, n: int) -> None:
        """Add n to `key` on the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + n

    def _patch(self, owner, attr: str, make: Callable) -> bool:
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patched.append((owner, attr, orig))
        return True

    def wrap_span(self, owner, attr: str, name: str,
                  counts: Optional[Dict[str, Callable]] = None) -> bool:
        """Record a span `name` around every call of owner.attr.

        `counts` maps a counter key to a function of the call's result; the
        value is added to the call's own span.
        """
        counts = counts or {}

        def make(orig):
            def traced(*args, **kwargs):
                with self.span(name) as sp:
                    out = orig(*args, **kwargs)
                    for key, fn in counts.items():
                        n = _measure(fn, out)
                        if n is not None:
                            sp.counts[key] = sp.counts.get(key, 0) + n
                    return out
            return traced
        return self._patch(owner, attr, make)

    def wrap_counter(self, owner, attr: str, key: str,
                     fn: Callable) -> bool:
        """Add fn(result) of every call of owner.attr to the enclosing span."""
        def make(orig):
            def counted(*args, **kwargs):
                out = orig(*args, **kwargs)
                n = _measure(fn, out)
                if n is not None:
                    self.count(key, n)
                return out
            return counted
        return self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def covered_length(lo: float, hi: float,
                   intervals: Iterable[tuple]) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: Dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.id: sp.duration - covered_length(
                sp.start, sp.end, children.get(sp.id, ()))
            for sp in spans}
