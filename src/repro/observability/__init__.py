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

    obs.enable()                      # tracing + metrics
    ... run a workload ...
    obs.get_tracer().write_chrome_trace("trace.json")
    print(obs.get_registry().snapshot())
    obs.disable()

or scoped::

    with obs.observe() as (tracer, registry):
        ... run ...
    tracer.summary(); registry.counters()
"""

from __future__ import annotations

from contextlib import contextmanager

from . import metrics, trace
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_counters,
    disable_metrics,
    enable_metrics,
    get_registry,
)
from .trace import (
    Span,
    Tracer,
    disable_module_spans,
    disable_tracing,
    enable_module_spans,
    enable_tracing,
    get_tracer,
    span,
    traced,
)

__all__ = [
    "metrics",
    "trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Tracer",
    "span",
    "traced",
    "diff_counters",
    "get_registry",
    "get_tracer",
    "enable",
    "disable",
    "observe",
    "enable_tracing",
    "disable_tracing",
    "enable_metrics",
    "disable_metrics",
    "enable_module_spans",
    "disable_module_spans",
]


def enable(
    tracing: bool = True, metric_collection: bool = True, module_spans: bool = False
) -> None:
    """Turn on the requested observability features process-wide."""
    if tracing:
        enable_tracing()
    if metric_collection:
        enable_metrics()
    if module_spans:
        enable_module_spans()


def disable() -> None:
    """Turn every observability feature off (the zero-overhead default)."""
    disable_tracing()
    disable_metrics()
    disable_module_spans()


@contextmanager
def observe(tracing: bool = True, metric_collection: bool = True, module_spans: bool = False):
    """Scoped enablement; restores the previous flags on exit.

    Yields ``(tracer, registry)`` — the global instances, *not* cleared on
    entry, so nest-friendly; call ``tracer.clear()`` / ``registry.reset()``
    yourself for an isolated capture.
    """
    prev = (trace.ENABLED, metrics.COLLECT, trace.MODULE_SPANS)
    enable(tracing=tracing, metric_collection=metric_collection, module_spans=module_spans)
    try:
        yield get_tracer(), get_registry()
    finally:
        trace.ENABLED, metrics.COLLECT, trace.MODULE_SPANS = prev
