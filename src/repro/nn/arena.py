"""Flat parameter arena: one contiguous float32 buffer per model.

Per-parameter loops dominate the Python-side cost of an optimizer step on
nets with many small tensors (a VGG-19 has ~80 parameter tensors, most of
them tiny BatchNorm scales).  The arena copies every parameter into one
contiguous buffer and rebinds each ``Parameter.data`` to a *view* of it,
so a single vectorized update over the flat buffer moves every weight in
the model — see :class:`repro.optim.Optimizer`.

Gradients deliberately stay per-tensor: the autograd engine rebinds
``p.grad`` on first accumulation and ``zero_grad`` sets it back to
``None``, so a gradient view could never survive an iteration.  Nor is the
packed gradient ever built whole: :meth:`ParameterArena.grad_chunk` copies
one chunk of it straight from the ``p.grad`` arrays into a caller-owned
chunk-sized buffer, and the optimizer streams its update through the arena
one such chunk at a time.

The arena stays valid as long as nobody rebinds ``p.data`` to a fresh
array; code that does so (a second arena over the same parameters) is
detected by :meth:`intact` and consumers rebuild the arena lazily.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

import numpy as np

from ..observability import metrics as _metrics
from .module import Parameter

__all__ = ["ParameterArena"]


class ParameterArena:
    """Pack ``params`` into one contiguous float32 vector and alias them.

    After construction ``p.data`` is a reshaped view into :attr:`flat` for
    every parameter, so mutating ``flat`` *is* mutating the model — bit
    for bit, with no scatter step.
    """

    def __init__(self, params: Iterable[Parameter]):
        self.params: list[Parameter] = [p for p in params]
        if not self.params:
            raise ValueError("arena over an empty parameter list")
        self.shapes: list[tuple[int, ...]] = [p.data.shape for p in self.params]
        self.sizes: list[int] = [int(p.data.size) for p in self.params]
        self.offsets: list[int] = []
        total = 0
        for size in self.sizes:
            self.offsets.append(total)
            total += size
        self.size = total
        self.flat = np.empty(total, dtype=np.float32)
        for p, off, size, shape in zip(self.params, self.offsets, self.sizes, self.shapes):
            self.flat[off : off + size] = p.data.reshape(-1)
            p.data = self.flat[off : off + size].reshape(shape)
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("arena.builds").inc()
            _metrics.REGISTRY.gauge("arena.bytes").set(float(self.flat.nbytes))

    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return int(self.flat.nbytes)

    def segments(self) -> Iterator[tuple[Parameter, int, int]]:
        """Yield ``(param, offset, size)`` in arena order."""
        yield from zip(self.params, self.offsets, self.sizes)

    def view(self, index: int) -> np.ndarray:
        """The flat view backing parameter ``index``."""
        off, size = self.offsets[index], self.sizes[index]
        return self.flat[off : off + size]

    def intact(self) -> bool:
        """True while every ``p.data`` is still a view of :attr:`flat`.

        Anything that rebinds ``p.data`` (a second arena over the same
        parameters, a plain ``p.data = ...``) breaks the aliasing; consumers
        check this per step and rebuild lazily.
        """
        return all(
            p.data.base is self.flat and p.data.shape == shape
            for p, shape in zip(self.params, self.shapes)
        )

    # ------------------------------------------------------------------

    def grad_chunk(self, out: np.ndarray, start: int) -> np.ndarray:
        """Copy elements ``start … start + out.size`` of the packed gradient
        (every ``p.grad`` flattened in arena order, zeros where a parameter
        received no gradient) into the float32 buffer ``out``."""
        stop = start + out.size
        if start < 0 or stop > self.size:
            raise ValueError(f"chunk [{start}, {stop}) is outside the arena's {self.size} elements")
        offsets = self.offsets
        i = bisect.bisect_right(offsets, start) - 1
        while i < len(offsets) and offsets[i] < stop:
            off = offsets[i]
            lo, hi = max(start, off), min(stop, off + self.sizes[i])
            dst = out[lo - start : hi - start]
            g = self.params[i].grad
            if g is None:
                dst.fill(0.0)
            elif g.flags.c_contiguous:
                dst[...] = g.reshape(-1)[lo - off : hi - off]
            else:  # copies only the chunk's elements, not the whole tensor
                dst[...] = g.flat[lo - off : hi - off]
            i += 1
        return out
