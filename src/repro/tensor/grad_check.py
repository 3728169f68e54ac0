"""Numerical gradient checking for the autograd engine.

Used heavily in the test suite to validate every analytic backward pass
against central finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numerical_grad", "check_gradients"]


_EPS = 1e-3


def numerical_grad(fn: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``
    (step ``1e-3``).

    ``fn`` must rebuild the forward pass from scratch on each call (the graph
    is re-recorded); ``param.data`` is perturbed in place and restored.
    """
    grad = np.zeros_like(param.data, dtype=np.float64)
    flat = param.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + _EPS
        plus = float(fn().data)
        flat[i] = orig - _EPS
        minus = float(fn().data)
        flat[i] = orig
        grad.reshape(-1)[i] = (plus - minus) / (2 * _EPS)
    return grad.astype(param.data.dtype)


def check_gradients(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    rtol: float = 1e-2,
    atol: float = 1e-3,
    max_bad_frac: float = 0.0,
) -> None:
    """Assert the analytic gradients of ``fn`` match finite differences.

    ``max_bad_frac`` permits a small fraction of violating elements: around
    ReLU / max-pool kinks, central differences straddle the non-smooth point
    and legitimately disagree with the (correct) subgradient.

    Raises ``AssertionError`` with the worst offender on mismatch.
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    for idx, p in enumerate(params):
        assert p.grad is not None, f"param {idx} received no gradient"
        num = numerical_grad(fn, p)
        err = np.abs(p.grad.astype(np.float64) - num.astype(np.float64))
        tol = atol + rtol * np.abs(num.astype(np.float64))
        bad = err > tol
        frac = bad.mean()
        if frac > max_bad_frac:
            worst = np.unravel_index(np.argmax(err - tol), err.shape)
            raise AssertionError(
                f"gradient mismatch for param {idx}: {bad.sum()}/{bad.size} elements "
                f"({frac:.2%}) exceed tolerance; worst at {worst}: "
                f"analytic={p.grad[worst]:.6g} numeric={num[worst]:.6g}"
            )
