"""Operation-level kernel accounting, bridged into the observability layer.

The engine's two kernels — GEMM (:meth:`Tensor.matmul`) and im2col
convolution (:func:`conv2d`) — call :func:`record_gemm` /
:func:`record_conv` when profiling is active.  Because every layer in the
library (Linear, Conv2d, LSTM, attention, and their low-rank variants)
bottoms out in these two kernels, a single instrumented forward pass
yields the exact multiply-accumulate count the paper reports in its
"MACs (G)" columns — no per-layer analytic bookkeeping required.

Two consumers can be active, independently or together:

* :class:`count_macs` — the original scoped counter.  Frames form a stack
  and the *innermost* frame receives the MACs, so a nested counter shadows
  its enclosing one (each region is counted exactly once, and
  ``outer.total`` covers only work outside the inner context — the
  documented historical semantics).
* the global metrics registry — inside
  ``repro.observability.observe(...)`` (metric collection is on by
  default there), every recorded kernel also increments the ``macs``,
  ``gemm_calls`` and ``conv_calls`` counters exactly once, regardless of
  how many ``count_macs`` frames are stacked.

Robustness: earlier versions chained restoration through a ``_prev``
attribute stored *on the context-manager object*, so re-entering the same
``count_macs`` instance overwrote the saved state and leaked an active
counter forever — every later kernel kept accumulating into the leaked
frame (and, under the registry, double-counted).  The frame stack below
pops by identity and discards any frames leaked above the exiting one, so
mismatched or exception-interrupted exits always restore a clean state.
"""

from __future__ import annotations

from ..observability import metrics as _metrics

__all__ = [
    "count_macs",
    "macs_active",
    "add_macs",
    "profiling_active",
    "record_gemm",
    "record_conv",
]

# Stack of active count_macs frames (innermost last).  Each frame is a
# one-element list so the accumulated total is mutable in place.
_STACK: list[list[int]] = []


class count_macs:
    """Context manager; ``.total`` holds the MACs accumulated inside.

    Re-entrant: one instance may be entered multiple times (even nested);
    each ``with`` block gets its own frame and ``.total`` reflects the most
    recently exited block.
    """

    def __init__(self) -> None:
        self.total = 0
        self._frames: list[list[int]] = []

    def __enter__(self) -> "count_macs":
        frame = [0]
        self._frames.append(frame)
        _STACK.append(frame)
        return self

    def __exit__(self, *exc) -> None:
        frame = self._frames.pop()
        self.total = frame[0]
        # Pop by identity: also discards frames leaked above this one by a
        # context that never exited (e.g. a generator abandoned mid-block),
        # so the global state always returns to a well-defined stack.
        for i in range(len(_STACK) - 1, -1, -1):
            if _STACK[i] is frame:
                del _STACK[i:]
                return


def macs_active() -> bool:
    """True while at least one :class:`count_macs` context is open."""
    return bool(_STACK)


def profiling_active() -> bool:
    """True when any kernel-accounting consumer wants updates."""
    return bool(_STACK) or _metrics.COLLECT


def add_macs(n: int) -> None:
    """Credit ``n`` MACs to the innermost counter and the registry."""
    n = int(n)
    if _STACK:
        _STACK[-1][0] += n
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("macs").inc(n)


def record_gemm(macs: int) -> None:
    """One GEMM kernel launch executing ``macs`` multiply-accumulates."""
    add_macs(macs)
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("gemm_calls").inc()


def record_conv(macs: int) -> None:
    """One im2col-convolution kernel launch of ``macs`` MACs."""
    add_macs(macs)
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("conv_calls").inc()
