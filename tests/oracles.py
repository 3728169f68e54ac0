"""Kernels as they were before a rewrite, kept as byte-equal oracles for the
tests and ``benchmarks/test_kernels.py``.

* Pooling before it walked shifted slabs: ``as_strided`` windows forward, a
  scatter-add per kernel offset backward (``tests/test_conv_ops.py``).
* The exact gradient mean as ``NoCompression.decode_aggregate`` and
  ``allreduce_mean`` each wrote it out: whole-array float64 casts, adds in
  worker order, one division, one cast back.
* SGD, Adam and LAMB as per-tensor loops, before :mod:`repro.optim` ran
  each of them as one update over a flat parameter arena.  Same
  elementwise float32 chain per tensor, state keyed by parameter identity.
  They *skip* a parameter whose ``grad`` is ``None`` (no decay, no
  momentum or moment update, no step-count advance), where the arena
  optimizers treat it as a zero gradient under one global step count; the
  two agree whenever every parameter has a gradient.
"""

import numpy as np


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only ``(N, C, oh, ow, kernel, kernel)`` view of every window."""
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _scatter(grad6: np.ndarray, x_shape, kernel: int, stride: int) -> np.ndarray:
    """``(N, C, oh, ow, kernel, kernel)`` window gradients summed into ``gx``
    one kernel offset at a time, row-major: ``col2im``'s order, without its
    transpose shortcut for 1×1 windows (which keeps a -0.0 a sum would not)."""
    oh, ow = grad6.shape[2:4]
    gx = np.zeros(x_shape, dtype=grad6.dtype)
    for i in range(kernel):
        for j in range(kernel):
            gx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += grad6[..., i, j]
    return gx


def argmax_pool_oracle(x: np.ndarray, kernel: int, stride: int, g: np.ndarray):
    """``(out, gx)`` of max pooling by ``argmax`` (first maximum wins a tie)
    and ``put_along_axis``."""
    windows = _windows(x, kernel, stride)
    flat = windows.reshape(*windows.shape[:4], kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0])
    grad_flat = np.zeros(flat.shape, dtype=g.dtype)
    np.put_along_axis(grad_flat, argmax[..., None], g[..., None], axis=-1)
    return out, _scatter(grad_flat.reshape(windows.shape), x.shape, kernel, stride)


def mean_pool_oracle(x: np.ndarray, kernel: int, stride: int, g: np.ndarray):
    """``(out, gx)`` of average pooling by ``mean`` over the window axes and
    ``g / k²`` broadcast to every window element."""
    windows = _windows(x, kernel, stride)
    out = np.ascontiguousarray(windows.mean(axis=(-1, -2)))
    spread = np.broadcast_to((g * (1.0 / (kernel * kernel)))[..., None, None], windows.shape)
    return out, _scatter(spread, x.shape, kernel, stride)


def exact_mean_oracle(arrays, dtype=None):
    """Element-wise mean of ``arrays`` accumulated in float64 in list order,
    cast to ``dtype`` (default: the first input's)."""
    out = arrays[0].astype(np.float64)
    for a in arrays[1:]:
        out += a
    return (out / len(arrays)).astype(arrays[0].dtype if dtype is None else dtype)


class _LoopOptimizer:
    """Per-tensor loop over ``params``: the attributes the trainers read
    (``params``, ``lr``, ``zero_grad``, ``step``), state keyed by parameter."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self.state: dict[int, dict] = {}

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def _decays(self, p) -> bool:
        return self.weight_decay > 0 and not getattr(p, "no_decay", False)

    def _moments(self, p) -> dict:
        """Adam/LAMB state of ``p`` with its step count advanced."""
        state = self.state.get(id(p))
        if state is None:
            state = self.state[id(p)] = {
                "step": 0,
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
                "wk": np.empty_like(p.data),
                "wk2": np.empty_like(p.data),
            }
        state["step"] += 1
        return state


class SGDLoop(_LoopOptimizer):
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0, nesterov=False):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self.nesterov = nesterov

    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            if self._decays(p):
                g = g + self.weight_decay * p.data
            if self.momentum > 0:
                state = self.state.setdefault(id(p), {})
                buf = state.get("momentum")
                if buf is None:
                    buf = state["momentum"] = g.astype(np.float32).copy()
                else:
                    buf *= self.momentum
                    buf += g
                g = g + self.momentum * buf if self.nesterov else buf
            p.data -= self.lr * g


class AdamLoop(_LoopOptimizer):
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps

    def step(self):
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            state = self._moments(p)
            t, m, v, wk, wk2 = (state[k] for k in ("step", "m", "v", "wk", "wk2"))
            if self._decays(p):
                np.multiply(p.data, self.weight_decay, out=wk2)
                wk2 += p.grad
                g = wk2
            else:
                g = p.grad
            m *= b1
            np.multiply(g, 1 - b1, out=wk)
            m += wk
            v *= b2
            np.multiply(g, 1 - b2, out=wk)
            wk *= g
            v += wk
            # wk becomes the denominator sqrt(v_hat) + eps, wk2 the scaled m_hat.
            np.divide(v, 1 - b2**t, out=wk)
            np.sqrt(wk, out=wk)
            wk += self.eps
            np.divide(m, 1 - b1**t, out=wk2)
            wk2 *= self.lr
            wk2 /= wk
            p.data -= wk2


class LAMBLoop(_LoopOptimizer):
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-6, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps

    def step(self):
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            state = self._moments(p)
            t, m, v, wk, wk2 = (state[k] for k in ("step", "m", "v", "wk", "wk2"))
            m *= b1
            np.multiply(g, 1 - b1, out=wk)
            m += wk
            v *= b2
            np.multiply(g, 1 - b2, out=wk)
            wk *= g
            v += wk
            # wk becomes the denominator sqrt(v_hat) + eps, wk2 the update u.
            np.divide(v, 1 - b2**t, out=wk)
            np.sqrt(wk, out=wk)
            wk += self.eps
            np.divide(m, 1 - b1**t, out=wk2)
            wk2 /= wk
            if self._decays(p):
                np.multiply(p.data, self.weight_decay, out=wk)
                wk2 += wk
            w_flat = p.data.ravel()
            u_flat = wk2.ravel()
            w_norm = float(np.sqrt(np.dot(w_flat, w_flat)))
            u_norm = float(np.sqrt(np.dot(u_flat, u_flat)))
            ratio = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
            wk2 *= self.lr * ratio
            p.data -= wk2
