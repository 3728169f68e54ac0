"""Span tracer: a nested, thread-safe wall-clock timeline.

``span("backward")`` opens a timed region; regions nest, and every thread
gets its own span stack, so the simulator's per-worker work and future
loader threads interleave cleanly in one timeline.  Each finished span
records its wall time and its *exclusive* time (wall time minus the wall
time of its direct children) — the number that tells you where the time
actually went rather than who was on the call stack.

Export: :meth:`Tracer.chrome_trace` — the Chrome ``traceEvents`` format;
load the file in ``chrome://tracing`` or https://ui.perfetto.dev for a
flame view.

Zero-overhead contract: when tracing is disabled (the default),
:func:`span` returns a shared no-op singleton — one module-attribute check,
no allocation, nothing recorded.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "span",
    "traced",
    "get_tracer",
    "ENABLED",
    "MODULE_SPANS",
]

# Module-level switches, read directly by hot paths (attribute load only)
# and flipped only by :func:`repro.observability.observe`.
ENABLED = False
# Separate flag for per-Module.forward spans: they are much finer-grained
# than phase spans, so they opt in independently.
MODULE_SPANS = False


@dataclass
class Span:
    """One finished timed region."""

    name: str
    start: float  # seconds since the tracer's epoch
    duration: float  # wall seconds
    thread_id: int
    depth: int  # nesting level at entry (0 = top level)
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0  # summed wall time of direct children

    @property
    def exclusive(self) -> float:
        """Wall time spent in this span but not in any child span."""
        return self.duration - self.child_time


class _ActiveSpan:
    """Mutable per-thread stack entry while a span is open."""

    __slots__ = ("name", "attrs", "start", "child_time")

    def __init__(self, name: str, attrs: dict, start: float):
        self.name = name
        self.attrs = attrs
        self.start = start
        self.child_time = 0.0


class _SpanContext:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._tracer._push(self._name, self._attrs)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._pop()


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from all threads into one timeline.

    Parameters
    ----------
    clock: monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name: str, attrs: dict) -> None:
        self._stack().append(_ActiveSpan(name, attrs, self._clock()))

    def _pop(self) -> None:
        end = self._clock()
        stack = self._stack()
        active = stack.pop()
        duration = end - active.start
        if stack:
            stack[-1].child_time += duration
        record = Span(
            name=active.name,
            start=active.start - self._epoch,
            duration=duration,
            thread_id=threading.get_ident(),
            depth=len(stack),
            attrs=active.attrs,
            child_time=active.child_time,
        )
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, /, **attrs) -> _SpanContext:
        """Open a span on this tracer regardless of the global flag."""
        return _SpanContext(self, name, attrs)

    # -- querying -------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        with self._lock:
            out = list(self._spans)
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def total(self, name: str) -> float:
        """Summed wall time of every span with ``name``."""
        return sum(s.duration for s in self.spans(name))

    def summary(self) -> dict:
        """Per-name aggregate: count, total wall and total exclusive time."""
        out: dict[str, dict] = {}
        for s in self.spans():
            agg = out.setdefault(
                s.name, {"count": 0, "total": 0.0, "exclusive": 0.0}
            )
            agg["count"] += 1
            agg["total"] += s.duration
            agg["exclusive"] += s.exclusive
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
        self._epoch = self._clock()

    # -- export ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome ``traceEvents`` JSON (complete 'X' events, µs units)."""
        events = []
        for s in self.spans():
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 0,
                    "tid": s.thread_id,
                    "args": {k: _jsonable(v) for k, v in s.attrs.items()},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
        return path


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, /, **attrs):
    """Timed region on the global tracer; no-op singleton when disabled."""
    if not ENABLED:
        return _NULL_SPAN
    return _SpanContext(_TRACER, name, attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form: times each call of the wrapped function.

    The enabled check happens per *call*, so functions decorated at import
    time pick up tracing turned on later.
    """

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            with _TRACER.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
