"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  Each
span carries name, start, end, parent and the id of the operation (train
step, ``train_epoch`` call, request or batch step) it belongs to.  They
stay in memory until the run ends and are then written to
``BENCH_e2e.<workload>.trace.json``.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of a span tree sum to the root's duration.

``repro.observability.trace.Tracer`` is not used because its spans carry a
depth but no parent id, do not inherit a step/request id, and cannot hang the
inference thread's spans under the batch step that awaits them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "id", "name", "op", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        stack = tracer._stack()
        if stack:
            top = stack[-1]
            self.parent = top.id
            if self.op is None:
                self.op = top.op
        else:
            # A thread with no open span adopts the span another thread
            # published (the inference thread under the awaiting batch step).
            adopted = tracer.adopt
            self.parent = adopted.id if adopted is not None else None
            if self.op is None and adopted is not None:
                self.op = adopted.op
        self.id = next(tracer._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, self.op,
                 threading.get_ident())
        )


class Tracer:
    """Collects spans from every thread of the benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.adopt: _Open | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int | None = None) -> _Open:
        """Open a span; ``op`` defaults to the enclosing span's op id."""
        return _Open(self, name, op)

    def add(self, name: str, start: float, end: float, op: int | None = None) -> None:
        """Record a root span measured elsewhere (a client-side round trip)."""
        self.spans.append(
            Span(next(self._ids), name, start, end, None, op, threading.get_ident())
        )

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def self_by_name(self, under: str | None = None) -> dict[str, float]:
        """Summed self seconds per span name, optionally only for spans
        that sit below (or are) a span called ``under``."""
        by_id = {s.id: s for s in self.spans}
        selfs = self.self_times()
        inside: dict[int, bool] = {}

        def below(s: Span) -> bool:
            hit = inside.get(s.id)
            if hit is None:
                if s.name == under:
                    hit = True
                else:
                    hit = s.parent is not None and below(by_id[s.parent])
                inside[s.id] = hit
            return hit

        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if under is None or below(s):
                totals[s.name] += selfs[s.id]
        return dict(totals)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def integrity_errors(self) -> list[str]:
        """Structural faults: a missing field, an unknown parent, a child
        outside its parent's interval, or a negative self time."""
        errors = []
        by_id = {s.id: s for s in self.spans}
        slack = 1e-4  # clocks of two threads are read a few microseconds apart
        for s in self.spans:
            if not s.name or s.end < s.start:
                errors.append(f"span {s.id} ({s.name!r}) has no name or ends before it starts")
            if s.op is None:
                errors.append(f"span {s.id} ({s.name}) has no step/request id")
            if s.parent is None:
                continue
            parent = by_id.get(s.parent)
            if parent is None:
                errors.append(f"span {s.id} ({s.name}) names unknown parent {s.parent}")
            elif s.start < parent.start - slack or s.end > parent.end + slack:
                errors.append(f"span {s.id} ({s.name}) leaves its parent {parent.name}")
        for sid, t in self.self_times().items():
            if t < -slack:
                errors.append(f"span {sid} ({by_id[sid].name}) has negative self time {t:.6f}")
        return errors[:20]

    def write(self, path: str, **header) -> None:
        with open(path, "w") as f:
            json.dump({**header, "spans": [asdict(s) for s in self.spans]}, f)
