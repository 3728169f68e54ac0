"""Fused flat-arena optimizers: one vectorized update for the whole model.

:class:`FusedOptimizer` owns a :class:`repro.nn.ParameterArena`: all
parameters alias one contiguous float32 buffer, optimizer state (momentum
buffer, Adam moments) lives in flat slabs of the same length, and weight
decay is applied through a per-element mask (zero on ``no_decay``
parameters), built by the first step that decays and rebuilt when
``weight_decay`` changes.  The ``no_decay`` flags themselves are read when
the arena is built: flip one afterwards and the fused step ignores it
until the next rebuild, where the per-tensor loops read it every step.
A step is then a handful of in-place vector ops instead of a Python loop
over every tensor, dispatched through the backend registry
(:mod:`repro.tensor.backend`) so the ``fast`` backend can run the
allocation-free variants.

Three concrete optimizers share the machinery:

- :class:`FusedSGD` — drop-in for :class:`repro.optim.SGD`; bit-exact
  vs the per-tensor loop (``sgd_update``, bit-exact parity tag).
- :class:`FusedAdam` — drop-in for :class:`repro.optim.Adam`; bit-exact
  vs the loop (``adam_update``, bit-exact parity tag).
- :class:`FusedLAMB` — drop-in for :class:`repro.optim.LAMB`; matches
  the loop within tolerance (``lamb_update`` carries the tolerance tag:
  its per-layer trust ratios come from segmented ``np.add.reduceat``
  norms whose summation order differs from per-tensor dots).

Bit-exactness holds whenever every parameter has a gradient: the same
elementwise float32 operations run in the same order per element, only
batched.  The one documented semantic difference: the per-tensor loops
*skip* parameters whose grad is ``None`` (no decay, no momentum/moment
update, no step-count advance), while the fused step treats a missing
gradient as zero — decay, moments, and the global step counter still
advance on those segments.  In the DDP simulator every parameter always
receives an (averaged) gradient, so the paths agree exactly there.

Anything that rebinds ``p.data`` (the AMP cast round-trip, a fresh
``rebind``) invalidates the arena; :meth:`FusedOptimizer._ensure_arena`
detects that per step, rebuilds the arena, and resets fused state —
exactly as re-instantiating the optimizer would.  Use
:meth:`FusedOptimizer.state_dict` / :meth:`~FusedOptimizer.load_state_dict`
to carry optimizer state across such a rebuild.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.arena import ParameterArena
from ..nn.module import Parameter
from ..observability import metrics as _metrics
from ..tensor import backend as _backend

from .optimizer import Optimizer

__all__ = ["FusedOptimizer", "FusedSGD", "FusedAdam", "FusedLAMB"]


class FusedOptimizer(Optimizer):
    """Shared arena/rebind/state machinery for the fused optimizers.

    Subclasses implement :meth:`_fused_update` (the per-step vector
    chain, usually one backend-registry dispatch), and optionally
    :meth:`_reset_fused_state` (zero/drop flat state slabs on arena
    (re)build) plus the :meth:`_fused_state`/:meth:`_load_fused_state`
    pair for checkpointing.
    """

    def __init__(self, params: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.weight_decay = weight_decay
        self._arena: ParameterArena | None = None
        self._grad_buf: np.ndarray | None = None
        self._tmp: np.ndarray | None = None
        # (offset, size) of every segment that decays, read from the
        # ``no_decay`` flags when the arena is built.
        self._decay_segments: list[tuple[int, int]] = []
        # The per-element decay mask and the ``weight_decay`` it was built
        # for; built by the first step that decays.
        self._decay_mask: np.ndarray | None = None
        self._mask_decay = 0.0

    # ------------------------------------------------------------------

    def _ensure_arena(self) -> ParameterArena:
        """(Re)build the arena lazily; AMP casts or ``rebind`` invalidate it."""
        arena = self._arena
        if (
            arena is not None
            and len(arena.params) == len(self.params)
            and all(a is b for a, b in zip(arena.params, self.params))
            and arena.intact()
        ):
            return arena
        if arena is not None and _metrics.COLLECT:
            _metrics.REGISTRY.counter("arena.rebuilds").inc()
        arena = self._arena = ParameterArena(self.params)
        self._grad_buf = np.empty(arena.size, dtype=np.float32)
        self._tmp = None
        self._decay_segments = [
            (off, size) for p, off, size in arena.segments() if not getattr(p, "no_decay", False)
        ]
        self._decay_mask = None
        # Optimizer state cannot survive a relayout: drop it, exactly as
        # re-instantiating the optimizer would (checkpoint via
        # state_dict/load_state_dict to carry it across).
        self._reset_fused_state(arena)
        return arena

    def rebind(self, params: Iterable[Parameter]) -> None:
        super().rebind(params)
        self._arena = None

    def _mask(self) -> np.ndarray | None:
        """The decay mask for this step: ``weight_decay`` on every decaying
        segment, zero elsewhere; ``None`` (and none held) when nothing
        decays.  Rebuilt whenever ``weight_decay`` changed since the last
        step that decayed, as the per-tensor loops read it every step."""
        wd = self.weight_decay
        if not wd > 0:
            self._decay_mask = None
            return None
        if self._decay_mask is None or self._mask_decay != wd:
            mask = np.zeros(self._arena.size, dtype=np.float32)
            for off, size in self._decay_segments:
                mask[off : off + size] = wd
            self._decay_mask, self._mask_decay = mask, wd
        return self._decay_mask

    def _scratch_slab(self) -> np.ndarray:
        """The arena-sized float32 temp the update chains write through,
        allocated by the first step that needs one."""
        if self._tmp is None:
            self._tmp = np.empty(self._arena.size, dtype=np.float32)
        return self._tmp

    # ------------------------------------------------------------------

    def step(self) -> None:
        arena = self._ensure_arena()
        grad = arena.gather_grad(out=self._grad_buf)
        self._fused_update(arena.flat, grad)

    def step_flat(self, grad_vec: np.ndarray) -> None:
        """Apply one update from an externally aggregated flat gradient
        (e.g. :func:`repro.distributed.allreduce_mean` over flattened
        worker gradients), skipping the gather."""
        arena = self._ensure_arena()
        if grad_vec.shape != (arena.size,):
            raise ValueError(
                f"flat gradient has shape {grad_vec.shape}, need ({arena.size},)"
            )
        # Work on our scratch copy: the update mutates the gradient buffer.
        np.copyto(self._grad_buf, grad_vec)
        self._fused_update(arena.flat, self._grad_buf)

    # -- subclass hooks ------------------------------------------------

    def _reset_fused_state(self, arena: ParameterArena) -> None:
        """Drop/zero flat state slabs after an arena (re)build."""

    def _fused_update(self, flat: np.ndarray, g: np.ndarray) -> None:
        """In-place parameter update over the flat vector; ``g`` is clobbered."""
        raise NotImplementedError

    # -- state persistence ---------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot fused state as plain arrays (copies, arena-layout order).

        The snapshot is keyed to the arena size only, so it survives an
        arena *rebuild* (AMP cast → same shapes, fresh buffer) but not a
        relayout to a different parameter set.
        """
        arena = self._ensure_arena()
        out: dict = {"arena_size": arena.size}
        out.update(self._fused_state())
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into the current arena."""
        arena = self._ensure_arena()
        if int(state["arena_size"]) != arena.size:
            raise ValueError(
                f"state dict was taken over an arena of {state['arena_size']} "
                f"elements, current arena has {arena.size}"
            )
        self._load_fused_state(state)

    def _fused_state(self) -> dict:
        return {}

    def _load_fused_state(self, state: dict) -> None:
        pass


class FusedSGD(FusedOptimizer):
    """SGD + momentum + weight decay over one flat parameter vector.

    Bit-exact vs :class:`repro.optim.SGD` whenever every parameter has a
    gradient (``sgd_update`` carries the bit-exact parity tag); see the
    module docstring for the grad-is-``None`` difference.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self.nesterov = nesterov
        self._momentum_buf: np.ndarray | None = None

    def _reset_fused_state(self, arena: ParameterArena) -> None:
        self._momentum_buf = None

    def _fused_update(self, flat: np.ndarray, g: np.ndarray) -> None:
        """In-place ``flat -= lr * d`` where ``d`` is the decayed,
        momentum-filtered gradient.  ``g`` is clobbered.

        The vector chain itself lives in the backend layer
        (:meth:`repro.tensor.backend.Backend.sgd_update`) so backends can
        fuse or reorder passes; the arena/mask bookkeeping stays here.
        """
        mask = self._mask()
        # ``g`` is the scratch of the final ``lr·d``; only the decay and
        # Nesterov terms need a second slab.
        tmp = self._scratch_slab() if mask is not None or self.nesterov else None
        self._momentum_buf = _backend.active().sgd_update(
            flat,
            g,
            tmp,
            mask,
            self._momentum_buf,
            self.lr,
            self.momentum,
            self.nesterov,
        )

    def _fused_state(self) -> dict:
        buf = self._momentum_buf
        return {"momentum_buf": None if buf is None else buf.copy()}

    def _load_fused_state(self, state: dict) -> None:
        buf = state["momentum_buf"]
        self._momentum_buf = None if buf is None else np.asarray(buf, dtype=np.float32).copy()


class FusedAdam(FusedOptimizer):
    """Adam (Kingma & Ba 2015) over one flat parameter vector.

    The first/second moments are flat slabs updated in one dispatched
    vector chain (``adam_update``, bit-exact parity tag), so a step is a
    dozen vector ops regardless of how many tensors the model has.

    Bit-exact vs the in-place per-tensor :class:`repro.optim.Adam` loop
    whenever every parameter has a gradient.  The loop keeps a *per
    parameter* step count and skips ``None``-grad params; the fused
    variant keeps one *global* step count and treats missing gradients
    as zero — identical whenever every parameter always has a gradient
    (the DDP allreduce case), divergent otherwise.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def _reset_fused_state(self, arena: ParameterArena) -> None:
        self._m = np.zeros(arena.size, dtype=np.float32)
        self._v = np.zeros(arena.size, dtype=np.float32)
        self._t = 0

    def _fused_update(self, flat: np.ndarray, g: np.ndarray) -> None:
        self._t += 1
        _backend.active().adam_update(
            flat,
            g,
            self._m,
            self._v,
            self._scratch_slab(),
            self._mask(),
            self.lr,
            self.betas[0],
            self.betas[1],
            self.eps,
            self._t,
        )

    def _fused_state(self) -> dict:
        return {"m": self._m.copy(), "v": self._v.copy(), "step": self._t}

    def _load_fused_state(self, state: dict) -> None:
        np.copyto(self._m, np.asarray(state["m"], dtype=np.float32))
        np.copyto(self._v, np.asarray(state["v"], dtype=np.float32))
        self._t = int(state["step"])


class FusedLAMB(FusedOptimizer):
    """LAMB (You et al. 2020) over one flat parameter vector.

    Layerwise trust ratios need per-tensor norms, which on the flat
    arena become *segmented* reductions: segment boundaries are
    precomputed from the arena layout, and the ``fast`` backend computes
    every norm in two vector ops (square the slab, ``np.add.reduceat``).
    ``lamb_update`` carries the tolerance parity tag — the reduceat
    summation order differs from the reference's per-segment dots — so
    :class:`FusedLAMB` matches the :class:`repro.optim.LAMB` loop within
    that tolerance rather than bit-for-bit.

    Same grad-is-``None`` semantics as :class:`FusedAdam`: the loop
    skips such params (and their per-parameter step count), the fused
    variant treats them as zero-gradient segments under one global step
    count.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0
        self._seg_starts: np.ndarray | None = None
        self._seg_sizes: np.ndarray | None = None

    def _reset_fused_state(self, arena: ParameterArena) -> None:
        self._m = np.zeros(arena.size, dtype=np.float32)
        self._v = np.zeros(arena.size, dtype=np.float32)
        self._t = 0
        self._seg_starts = np.asarray(arena.offsets, dtype=np.intp)
        self._seg_sizes = np.asarray(arena.sizes, dtype=np.intp)

    def _fused_update(self, flat: np.ndarray, g: np.ndarray) -> None:
        self._t += 1
        _backend.active().lamb_update(
            flat,
            g,
            self._m,
            self._v,
            self._scratch_slab(),
            self._mask(),
            self._seg_starts,
            self._seg_sizes,
            self.lr,
            self.betas[0],
            self.betas[1],
            self.eps,
            self._t,
        )

    def _fused_state(self) -> dict:
        return {"m": self._m.copy(), "v": self._v.copy(), "step": self._t}

    def _load_fused_state(self, state: dict) -> None:
        np.copyto(self._m, np.asarray(state["m"], dtype=np.float32))
        np.copyto(self._v, np.asarray(state["v"], dtype=np.float32))
        self._t = int(state["step"])
