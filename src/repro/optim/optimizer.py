"""Optimizers over one flat parameter arena, and gradient utilities.

:class:`Optimizer` owns a :class:`repro.nn.ParameterArena`: all parameters
alias one contiguous float32 buffer, optimizer state (momentum buffer, Adam
moments) lives in flat slabs of the same length, and weight decay is applied
through a per-element mask (zero on ``no_decay`` parameters), built by the
first step that decays and rebuilt when ``weight_decay`` changes.  The arena
and the state slabs are built with the optimizer, and the ``no_decay`` flags
are read then.  A step is a
handful of in-place vector ops instead of a Python loop over every tensor,
dispatched through the backend registry (:mod:`repro.tensor.backend`) so the
``fast`` backend can run the allocation-free variants.

The step streams: :data:`CHUNK` elements at a time (``CHUNK_BYTES`` per
operand), each chunk's gradient is copied straight from the ``p.grad``
arrays into a chunk-sized scratch (:meth:`ParameterArena.grad_chunk`) and
the algorithm's whole vector chain runs on that chunk's slices of the arena,
the state slabs and the decay mask while they sit in L2.  No arena-sized
copy of the gradient is built, and every element sees the same IEEE
operations in the same order as a whole-arena chain, so the bytes do not
depend on the chunking.  LAMB is the exception: its trust ratio needs each
segment's whole update, so it packs the gradient into one ``u`` slab and
runs its chain over the arena at once.

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

#: float32 elements per chunk of a streamed step.
CHUNK = _backend.CHUNK_BYTES // 4


class Optimizer:
    """One flat-arena update over a list of :class:`Parameter`.

    Subclasses implement :meth:`_update` (the per-step vector chain, one
    backend-registry dispatch per chunk) and the :meth:`_reset_state` /
    :meth:`_state` / :meth:`_load_state` trio over their flat slabs.
    """

    def __init__(self, params: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        self.params: list[Parameter] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self._arena: ParameterArena | None = None
        # Chunk-sized float32 scratch: each chunk's gradient, and the
        # temporary of the chains that need one.
        self._grad_chunk: np.ndarray | None = None
        self._tmp_chunk: np.ndarray | None = None
        # (offset, size) of every segment that decays, read from the
        # ``no_decay`` flags when the arena is built.
        self._decay_segments: list[tuple[int, int]] = []
        # The per-element decay mask and the ``weight_decay`` it was built
        # for; built by the first step that decays.
        self._decay_mask: np.ndarray | None = None
        self._mask_decay = 0.0
        # The arena and the state slabs are built now, before any step
        # allocates its temporaries: long-lived buffers first keeps them
        # below the transient ones in the heap.  Subclasses set what
        # ``_reset_state`` reads before calling this.
        self._ensure_arena()

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
        self._grad_chunk = self._tmp_chunk = None
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

    def _chunks(self, fill, need_tmp: bool):
        """Yield ``(sl, g, tmp)`` for each :data:`CHUNK`-element slice ``sl``
        of the arena, in order.  ``g`` is the chunk scratch, filled by
        ``fill(g, sl.start)`` with that slice of the gradient (the update may
        clobber it); ``tmp`` is a second chunk of scratch when ``need_tmp``,
        else ``None``."""
        size = self._arena.size
        n = min(CHUNK, size)
        if self._grad_chunk is None:
            self._grad_chunk = np.empty(n, dtype=np.float32)
        if need_tmp and self._tmp_chunk is None:
            self._tmp_chunk = np.empty(n, dtype=np.float32)
        for start in range(0, size, CHUNK):
            stop = min(start + CHUNK, size)
            g = fill(self._grad_chunk[: stop - start], start)
            tmp = self._tmp_chunk[: stop - start] if need_tmp else None
            yield slice(start, stop), g, tmp

    # ------------------------------------------------------------------

    def step(self) -> None:
        arena = self._ensure_arena()
        self._update(arena.flat, arena.grad_chunk)

    def step_flat(self, grad_vec: np.ndarray) -> None:
        """Apply one update from an externally aggregated flat gradient
        (e.g. :func:`repro.distributed.allreduce_mean` over flattened
        worker gradients) instead of the ``p.grad`` arrays.  ``grad_vec`` is
        only read."""
        arena = self._ensure_arena()
        if grad_vec.shape != (arena.size,):
            raise ValueError(
                f"flat gradient has shape {grad_vec.shape}, need ({arena.size},)"
            )

        def fill(out: np.ndarray, start: int) -> np.ndarray:
            np.copyto(out, grad_vec[start : start + out.size])
            return out

        self._update(arena.flat, fill)

    # -- subclass hooks ------------------------------------------------

    def _reset_state(self, arena: ParameterArena) -> None:
        """Drop/zero flat state slabs after an arena (re)build."""

    def _update(self, flat: np.ndarray, fill) -> None:
        """In-place parameter update over the flat vector.  ``fill(out,
        start)`` writes gradient elements ``start … start + out.size`` into
        ``out`` and returns it (see :meth:`_chunks`)."""
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
        self.momentum = momentum
        self.nesterov = nesterov
        self._momentum_buf: np.ndarray | None = None
        # False until a step has copied its gradient into the momentum slab.
        self._momentum_started = False
        super().__init__(params, lr, weight_decay)

    def _reset_state(self, arena: ParameterArena) -> None:
        self._momentum_buf = (
            np.empty(arena.size, dtype=np.float32) if self.momentum > 0 else None
        )
        self._momentum_started = False

    def _update(self, flat: np.ndarray, fill) -> None:
        """In-place ``flat -= lr * d`` where ``d`` is the decayed,
        momentum-filtered gradient, one chunk at a time.

        The vector chain itself lives in the backend layer
        (:meth:`repro.tensor.backend.Backend.sgd_update`) so backends can
        fuse or reorder passes; the arena/mask bookkeeping stays here.
        """
        mask = self._mask()
        buf = self._momentum_buf
        # The first momentum step copies the (decayed) gradient in: a -0.0
        # stays -0.0.
        first = not self._momentum_started
        sgd_update = _backend.active().sgd_update
        # ``g`` is the scratch of the final ``lr·d``; only the decay and
        # Nesterov terms need a second chunk.
        for sl, g, tmp in self._chunks(fill, mask is not None or self.nesterov):
            sgd_update(
                flat[sl],
                g,
                tmp,
                None if mask is None else mask[sl],
                None if buf is None else buf[sl],
                self.lr,
                self.momentum,
                self.nesterov,
                first,
            )
        self._momentum_started = buf is not None

    def _state(self) -> dict:
        buf = self._momentum_buf if self._momentum_started else None
        return {"momentum_buf": None if buf is None else buf.copy()}

    def _load_state(self, state: dict) -> None:
        buf = state["momentum_buf"]
        self._momentum_started = buf is not None
        if buf is None:
            return
        if self._momentum_buf is None:
            self._momentum_buf = np.empty(self._arena.size, dtype=np.float32)
        np.copyto(self._momentum_buf, np.asarray(buf, dtype=np.float32))


class _Moments(Optimizer):
    """Adam-style first/second moment slabs under one global step count."""

    def __init__(self, params, lr, betas, eps, weight_decay):
        self.betas = betas
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0
        super().__init__(params, lr, weight_decay)

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

    The first/second moments are flat slabs updated by one dispatched
    vector chain (``adam_update``) per chunk, so a step is a dozen vector
    ops per chunk regardless of how many tensors the model has.
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

    def _update(self, flat: np.ndarray, fill) -> None:
        self._t += 1
        mask = self._mask()
        adam_update = _backend.active().adam_update
        for sl, g, tmp in self._chunks(fill, True):
            adam_update(
                flat[sl],
                g,
                self._m[sl],
                self._v[sl],
                tmp,
                None if mask is None else mask[sl],
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
        self._seg_starts: np.ndarray | None = None
        self._seg_sizes: np.ndarray | None = None
        # The packed gradient, overwritten in place by the update vector u.
        self._u: np.ndarray | None = None
        super().__init__(params, lr, betas, eps, weight_decay)

    def _reset_state(self, arena: ParameterArena) -> None:
        super()._reset_state(arena)
        self._seg_starts = np.asarray(arena.offsets, dtype=np.intp)
        self._seg_sizes = np.asarray(arena.sizes, dtype=np.intp)
        self._u = np.empty(arena.size, dtype=np.float32)

    def _update(self, flat: np.ndarray, fill) -> None:
        self._t += 1
        _backend.active().lamb_update(
            flat,
            fill(self._u, 0),
            self._m,
            self._v,
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
