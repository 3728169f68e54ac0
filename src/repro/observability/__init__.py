"""Unified observability layer: span tracing, metrics, kernel profiling.

Three cooperating pieces:

* :mod:`repro.observability.trace` — nested span timelines with exclusive
  time per span, exportable as JSON or Chrome-trace format.
* :mod:`repro.observability.metrics` — a counters/gauges/histograms
  registry that absorbs the engine's MAC accounting and adds bytes-moved,
  allreduce-call, kernel-launch and cache-hit counters.
* the profiling hooks threaded through the library's hot paths
  (:mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.core.trainer`,
  :mod:`repro.distributed`), all gated on module-level flags so the
  disabled path costs one attribute check and allocates nothing.

Typical use::

    from repro import observability as obs

    with obs.observe() as (tracer, registry):     # tracing + metrics
        ... run a workload ...
    tracer.write_chrome_trace("trace.json")
    print(registry.snapshot())

:func:`observe` is the one switch: it turns on what it is asked for, leaves
on what already was, and restores the previous flags on exit.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import metrics, trace
from .metrics import REGISTRY, Counter, diff_counters, get_registry
from .trace import Span, Tracer, get_tracer, span, traced

__all__ = [
    "metrics",
    "trace",
    "Counter",
    "REGISTRY",
    "Span",
    "Tracer",
    "span",
    "traced",
    "diff_counters",
    "get_registry",
    "get_tracer",
    "observe",
]


@contextmanager
def observe(tracing: bool = True, metric_collection: bool = True, module_spans: bool = False):
    """Turn on the requested features until the block exits.

    A feature already on stays on (a nested ``observe(tracing=False)`` keeps
    the outer block's tracing), and the exit restores the three flags as
    they were on entry.  Yields ``(tracer, registry)`` — the global
    instances, *not* cleared on entry; call ``tracer.clear()`` /
    ``registry.reset()`` yourself for an isolated capture.
    """
    prev = (trace.ENABLED, metrics.COLLECT, trace.MODULE_SPANS)
    trace.ENABLED = trace.ENABLED or tracing
    metrics.COLLECT = metrics.COLLECT or metric_collection
    trace.MODULE_SPANS = trace.MODULE_SPANS or module_spans
    try:
        yield get_tracer(), get_registry()
    finally:
        trace.ENABLED, metrics.COLLECT, trace.MODULE_SPANS = prev
