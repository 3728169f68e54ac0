"""Optimizers over one flat parameter arena, and gradient utilities.

:class:`Optimizer` owns a :class:`repro.nn.ParameterArena`: all parameters
alias one contiguous float32 buffer, optimizer state (momentum buffer, Adam
moments) lives in flat slabs of the same length, and weight decay is applied
through a per-element mask (zero on ``no_decay`` parameters), built by the
first step that decays and rebuilt when ``weight_decay`` changes.  The
``no_decay`` flags themselves are read when the arena is built.  A step is a
handful of in-place vector ops instead of a Python loop over every tensor,
dispatched through the backend registry (:mod:`repro.tensor.backend`) so the
``fast`` backend can run the allocation-free variants.

Three algorithms share the machinery:

- :class:`SGD` — momentum, Nesterov and weight decay (``sgd_update``,
  bit-exact parity tag): the paper's CIFAR/ImageNet recipe, momentum 0.9
  and no decay on BatchNorm parameters (Appendix I).
- :class:`Adam` — Kingma & Ba 2015, used for the Transformer task
  (``adam_update``, bit-exact parity tag).
- :class:`LAMB` — You et al. 2020, Adam with a per-layer trust ratio
  (``lamb_update``, tolerance parity tag: the fast backend's segmented
  ``np.add.reduceat`` norms sum in a different order than per-tensor dots).

Each matches a per-tensor loop over the same elementwise float32 chain (the
loops are kept as oracles in ``tests/oracles.py``).  A parameter whose
``grad`` is ``None`` gets a zero gradient: decay, momentum and moments still
advance on its segment, under one global step count.

:meth:`Optimizer.rebind`, or anything that points ``p.data`` at a fresh
array (a second arena over the same parameters, a plain ``p.data = ...``),
invalidates the arena; :meth:`Optimizer._ensure_arena` detects that per
step, rebuilds the arena and resets optimizer state, exactly as
re-instantiating the optimizer would.  Use :meth:`Optimizer.state_dict` /
:meth:`~Optimizer.load_state_dict` to carry state across such a rebuild.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.arena import ParameterArena
from ..nn.module import Parameter
from ..observability import metrics as _metrics
from ..tensor import backend as _backend

__all__ = ["Optimizer", "SGD", "Adam", "LAMB", "clip_grad_norm"]


class Optimizer:
    """One flat-arena update over a list of :class:`Parameter`.

    Subclasses implement :meth:`_update` (the per-step vector chain, one
    backend-registry dispatch) and the :meth:`_reset_state` /
    :meth:`_state` / :meth:`_load_state` trio over their flat slabs.
    """

    def __init__(self, params: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        self.params: list[Parameter] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)
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

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def rebind(self, params: Iterable[Parameter]) -> None:
        """Point the optimizer at a new parameter list, dropping its state.

        Used when Pufferfish swaps the vanilla model for its factorized
        counterpart mid-training: the new U/V parameters start with fresh
        optimizer state, exactly as re-instantiating the optimizer would.
        """
        self.params = [p for p in params]
        self._arena = None

    # ------------------------------------------------------------------

    def _ensure_arena(self) -> ParameterArena:
        """(Re)build the arena lazily; ``rebind`` or a rebound ``p.data``
        invalidates it."""
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
        self._reset_state(arena)
        return arena

    def _mask(self) -> np.ndarray | None:
        """The decay mask for this step: ``weight_decay`` on every decaying
        segment, zero elsewhere; ``None`` (and none held) when nothing
        decays.  Rebuilt whenever ``weight_decay`` changed since the last
        step that decayed."""
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
        self._update(arena.flat, grad)

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
        self._update(arena.flat, self._grad_buf)

    # -- subclass hooks ------------------------------------------------

    def _reset_state(self, arena: ParameterArena) -> None:
        """Drop/zero flat state slabs after an arena (re)build."""

    def _update(self, flat: np.ndarray, g: np.ndarray) -> None:
        """In-place parameter update over the flat vector; ``g`` is clobbered."""
        raise NotImplementedError

    def _state(self) -> dict:
        return {}

    def _load_state(self, state: dict) -> None:
        pass

    # -- state persistence ---------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot optimizer state as plain arrays and scalars (copies,
        arena-layout order).

        The snapshot is keyed to the arena size only, so it survives an
        arena *rebuild* (same shapes, fresh buffer) but not a relayout to a
        different parameter set.
        """
        arena = self._ensure_arena()
        return {"arena_size": arena.size, **self._state()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into the current arena.

        A snapshot that does not fit — other keys, another arena size, a
        slab of another length — raises ``ValueError`` before anything is
        loaded.
        """
        arena = self._ensure_arena()
        want = {"arena_size", *self._state()}
        if set(state) != want:
            raise ValueError(
                f"state dict has keys {sorted(state)}, "
                f"{type(self).__name__} needs {sorted(want)}"
            )
        if int(state["arena_size"]) != arena.size:
            raise ValueError(
                f"state dict was taken over an arena of {state['arena_size']} "
                f"elements, current arena has {arena.size}"
            )
        for key, value in state.items():
            if isinstance(value, np.ndarray) and value.shape != (arena.size,):
                raise ValueError(
                    f"state slab {key!r} has shape {value.shape}, need ({arena.size},)"
                )
        self._load_state(state)


class SGD(Optimizer):
    """SGD + momentum + weight decay over one flat parameter vector.

    Parameters flagged ``no_decay`` (BatchNorm scales and shifts) are
    exempt from weight decay, as in the paper's recipe.
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

    def _reset_state(self, arena: ParameterArena) -> None:
        self._momentum_buf = None

    def _update(self, flat: np.ndarray, g: np.ndarray) -> None:
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

    def _state(self) -> dict:
        buf = self._momentum_buf
        return {"momentum_buf": None if buf is None else buf.copy()}

    def _load_state(self, state: dict) -> None:
        buf = state["momentum_buf"]
        self._momentum_buf = None if buf is None else np.asarray(buf, dtype=np.float32).copy()


class _Moments(Optimizer):
    """Adam-style first/second moment slabs under one global step count."""

    def __init__(self, params, lr, betas, eps, weight_decay):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def _reset_state(self, arena: ParameterArena) -> None:
        self._m = np.zeros(arena.size, dtype=np.float32)
        self._v = np.zeros(arena.size, dtype=np.float32)
        self._t = 0

    def _state(self) -> dict:
        return {"m": self._m.copy(), "v": self._v.copy(), "step": self._t}

    def _load_state(self, state: dict) -> None:
        np.copyto(self._m, np.asarray(state["m"], dtype=np.float32))
        np.copyto(self._v, np.asarray(state["v"], dtype=np.float32))
        self._t = int(state["step"])


class Adam(_Moments):
    """Adam (Kingma & Ba 2015) over one flat parameter vector.

    The first/second moments are flat slabs updated in one dispatched
    vector chain (``adam_update``), so a step is a dozen vector ops
    regardless of how many tensors the model has.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, betas, eps, weight_decay)

    def _update(self, flat: np.ndarray, g: np.ndarray) -> None:
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


class LAMB(_Moments):
    """LAMB (You et al. 2020) over one flat parameter vector.

    Each tensor's Adam update ``u = m̂ / (√v̂ + eps) + wd·w`` (decoupled
    weight decay) is rescaled by its *trust ratio* ``‖w‖ / ‖u‖`` (1.0 when
    either norm is zero), which keeps the update magnitude proportional to
    the weight magnitude per layer — what lets large-batch training match
    small-batch accuracy.  On the flat arena the per-tensor norms are
    *segmented* reductions over boundaries precomputed from the layout.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, betas, eps, weight_decay)
        self._seg_starts: np.ndarray | None = None
        self._seg_sizes: np.ndarray | None = None

    def _reset_state(self, arena: ParameterArena) -> None:
        super()._reset_state(arena)
        self._seg_starts = np.asarray(arena.offsets, dtype=np.intp)
        self._seg_sizes = np.asarray(arena.sizes, dtype=np.intp)

    def _update(self, flat: np.ndarray, g: np.ndarray) -> None:
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


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm``.

    Returns the pre-clip norm (for logging), matching
    ``torch.nn.utils.clip_grad_norm_`` semantics.
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / (total + 1e-6)
        for p in params:
            p.grad *= scale
    return total
