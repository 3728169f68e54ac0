"""Mixed-precision training emulation (the paper's "AMP" rows).

PyTorch AMP runs the forward/backward in float16 while keeping float32
master weights and scaling the loss to avoid fp16 gradient underflow.  We
emulate exactly that numerics on CPU:

* :class:`GradScaler` — multiplies the loss by a scale factor, unscales the
  gradients before the optimizer step, skips steps whose gradients contain
  inf/NaN, and adapts the scale (growth/backoff) like
  ``torch.cuda.amp.GradScaler``.
* :func:`autocast_round_trip` — casts parameters to fp16 and back, injecting
  the representational error fp16 compute would introduce.

This reproduces the paper's claim under test — that Pufferfish's accuracy is
stable under mixed precision — without GPU hardware.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Module, Parameter

__all__ = ["GradScaler", "autocast_round_trip", "cast_gradients_fp16"]


class GradScaler:
    """Dynamic loss scaling with inf/NaN step skipping."""

    def __init__(
        self,
        init_scale: float = 2.0**16,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 200,
    ):
        self.scale = init_scale
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.growth_interval = growth_interval
        self._good_steps = 0

    def scale_loss(self, loss):
        """Multiply the loss tensor by the current scale (returns Tensor)."""
        return loss * self.scale

    def unscale_and_check(self, params: Iterable[Parameter]) -> bool:
        """Divide grads by scale; return False (skip step) on inf/NaN."""
        params = [p for p in params if p.grad is not None]
        found_bad = False
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                found_bad = True
                break
        if found_bad:
            self.scale *= self.backoff_factor
            self._good_steps = 0
            for p in params:
                p.grad = None
            return False
        inv = 1.0 / self.scale
        for p in params:
            p.grad *= inv
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self.scale *= self.growth_factor
            self._good_steps = 0
        return True


def autocast_round_trip(model: Module) -> None:
    """Inject fp16 representation error into all parameters (in place).

    Emulates the numerics of running the forward pass in half precision:
    values are rounded to the nearest representable float16 and restored to
    float32 master storage.  The values are written back into the same
    arrays, so views into an optimizer's parameter arena stay aliased and
    its state survives the round trip.
    """
    for p in model.parameters():
        p.data[...] = p.data.astype(np.float16)


def cast_gradients_fp16(params: Iterable[Parameter]) -> None:
    """Round gradients through fp16, emulating a half-precision backward.

    Magnitudes beyond fp16's range saturate to ``inf`` on purpose — that
    overflow is what a dynamic loss scaler detects and backs off from.
    """
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                p.grad = p.grad.astype(np.float16).astype(np.float32)
