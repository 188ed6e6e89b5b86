"""In-memory spans recorded around calls into the program's layers.

The benchmark does not instrument the program: it wraps public functions
*where their callers look them up* (a module global, a class attribute)
for the duration of a traced phase, and restores them afterwards.  Each
wrapper opens a span — name, start, end, parent span — on a per-thread
stack, so a span's parent is whatever wrapped call was running on the
same thread when it started.

A span's **self time** is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).  Layer metrics are sums
of durations or self times per span name, divided by the number of root
operations (steps, sample sets, requests) the phase ran.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Span and counter store for one traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        start = self.clock()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        """Record one value of a distribution (e.g. a request's queue wait)."""
        with self._lock:
            self.values[name].append(value)

    def summary(self) -> dict[str, "SpanTotals"]:
        """Calls, summed duration and summed self time per span name."""
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals = out[span.name]
            totals.calls += 1
            totals.seconds += span.duration
            totals.self_seconds += own
        return out


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Patches:
    """Wrap attributes in a span for the lifetime of a ``with`` block.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a module global or
    a class attribute, including class- and static methods) with a wrapper
    that runs the original inside ``tracer.span(name)``; ``on_call`` (if
    given) receives the call's arguments to record counters.  Generator
    functions get a wrapper that times each ``next`` instead.  Everything
    is restored on exit, in reverse order.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        tracer = self.tracer
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(tracer, args, kwargs)
                with tracer.span(name):
                    return func(*args, **kwargs)

        # An attribute inherited from a base class is shadowed on ``owner``
        # while wrapped and deleted again on restore.
        own = attr in getattr(owner, "__dict__", {})
        self._saved.append((owner, attr, raw, own))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
