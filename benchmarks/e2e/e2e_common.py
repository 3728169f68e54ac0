"""Pieces every workload shares: the operation log, quantiles, the hooks
that put spans around a layer's public methods, and the input digest."""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from benchspec import LAYER_CLASSES


@dataclass
class OpLog:
    """What one timed window produced.  ``op_s`` holds one latency per
    *successful* operation; ``attempted`` and ``failed`` count them all."""

    op_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    samples: int = 0  # training samples or requests completed in wall_s
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)  # losses, timelines, records


def scaled(count: int, scale: float) -> int:
    """A fixed count under the run's common scale factor, at least 1."""
    return max(1, round(count * scale))


def merge_logs(logs: list[OpLog]) -> OpLog:
    """One log for several windows; ``extra`` lists, dicts and counts add up."""
    out = OpLog()
    for log in logs:
        out.op_s += log.op_s
        out.wall_s += log.wall_s
        out.samples += log.samples
        out.attempted += log.attempted
        out.failed += log.failed
        for key, value in log.extra.items():
            if isinstance(value, dict):
                out.extra.setdefault(key, {}).update(value)
            else:
                out.extra[key] = out.extra.get(key, type(value)()) + value
    return out


def median_call_ms(fn, repeats: int) -> float:
    """Median wall milliseconds of ``repeats`` calls of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return ms(quantile(times, 0.5))


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q * 100))


def ms(seconds: float) -> float:
    return seconds * 1e3


def median_ms(values) -> float:
    return ms(quantile(values, 0.5)) if len(values) else 0.0


def common_end_to_end(log: OpLog) -> dict[str, float]:
    """The three timing metrics every workload reports."""
    return {
        "samples_per_s": log.samples / log.wall_s,
        "step_ms_p50": ms(quantile(log.op_s, 0.50)),
        "step_ms_p90": ms(quantile(log.op_s, 0.90)),
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_arrays(*arrays) -> str:
    """Short hash of the generated inputs, so a test can see --seed move them."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL = _NullSpan()


def span_factory(tracer):
    """``tracer.span`` when tracing, else a no-op with the same signature, so
    the traced and untraced windows run the very same step function."""
    if tracer is not None:
        return tracer.span
    return lambda name, op=None: _NULL


# -- hooks around public methods ---------------------------------------------


def wrap_method(obj, method: str, tracer, span_name: str, outer: str | None = None):
    """Shadow ``obj.method`` with a span-recording wrapper (inside a second
    span called ``outer`` when given); returns the undo."""
    inner = getattr(obj, method)

    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return inner(*args, **kwargs)

    def traced_in_outer(*args, **kwargs):
        with tracer.span(outer):
            return traced(*args, **kwargs)

    object.__setattr__(obj, method, traced_in_outer if outer else traced)
    return lambda: object.__delattr__(obj, method)


def wrap_modules(model, tracer):
    """Record one span per ``forward`` call of every module of ``model``,
    named after the module's class, and an ``nn.forward`` span around the
    root call.  Low-rank layers are leaves: their inner factor layers are
    their own cost, not ``Conv2d``'s or ``Linear``'s.  Returns the undo."""
    undo = [wrap_method(model, "forward", tracer, type(model).__name__, outer="nn.forward")]
    seen = {id(model)}  # a module reused in two places is wrapped once

    def visit(mod):
        for child in mod.children():
            if id(child) in seen:
                continue
            seen.add(id(child))
            undo.append(wrap_method(child, "forward", tracer, type(child).__name__))
            if not type(child).__name__.startswith("LowRank"):
                visit(child)

    visit(model)

    def restore():
        for u in undo:
            u()

    return restore


def forward_self_ms(tracer, n_steps: int) -> dict[str, float]:
    """nn.fwd_self_ms.<Class>: self milliseconds per step of every module
    class below an ``nn.forward`` span (its own sliver counts as ``other``)."""
    out = {f"nn.fwd_self_ms.{c}": 0.0 for c in LAYER_CLASSES}
    out["nn.fwd_self_ms.other"] = 0.0
    for name, seconds in tracer.self_by_name(under="nn.forward").items():
        key = f"nn.fwd_self_ms.{name}"
        out[key if key in out else "nn.fwd_self_ms.other"] += ms(seconds) / n_steps
    return out


def sum_check(what: str, parts: float, total: float, tol: float = 0.05) -> list[str]:
    """The trace-integrity rule: parts must sum to the total within 5 %."""
    if total <= 0 or abs(parts - total) > tol * total:
        return [f"{what}: parts sum to {parts:.4f} but the total is {total:.4f}"]
    return []
