"""Weight initialization schemes (Kaiming-uniform and plain uniform)."""

from __future__ import annotations

import math

import numpy as np

from ..utils import get_rng

__all__ = ["kaiming_uniform", "uniform"]


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for FC (out, in) or conv (out, in, kh, kw) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape))
    return fan_in, fan_out


# PyTorch's default negative slope for Linear/Conv weights.
_KAIMING_A = math.sqrt(5)


def kaiming_uniform(shape) -> np.ndarray:
    """He-uniform init matching PyTorch's default for Linear/Conv layers."""
    fan_in, _ = _fan(tuple(shape))
    gain = math.sqrt(2.0 / (1.0 + _KAIMING_A * _KAIMING_A))
    bound = gain * math.sqrt(3.0 / fan_in)
    return get_rng().uniform(-bound, bound, size=shape).astype(np.float32)


def uniform(shape, bound: float) -> np.ndarray:
    return get_rng().uniform(-bound, bound, size=shape).astype(np.float32)
