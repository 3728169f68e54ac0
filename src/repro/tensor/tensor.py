"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the computational substrate for the whole reproduction: a
single :class:`Tensor` class that wraps a ``numpy.ndarray`` and records a
dynamic computation graph, plus the elementwise / reduction / shape
primitives that the neural-network layers in :mod:`repro.nn` are built from.

The design follows the usual define-by-run scheme: every differentiable
operation produces a new ``Tensor`` holding references to its parents and a
closure that propagates the output gradient to them.  Calling
:meth:`Tensor.backward` runs a topological sort of the recorded graph and
accumulates gradients into every leaf with ``requires_grad=True``.

All math is vectorized NumPy; there are no Python loops over elements.
Gradients are stored in the same dtype as the data (float32 by default).

Who owns a gradient buffer
--------------------------
Every ``.grad`` array belongs to exactly one tensor; no two live ``.grad``
arrays share memory, and none aliases an op's saved context or a backend
scratch buffer.  Three rules keep that true without copying every gradient:

* **A producer donates.**  A backward closure that *builds* the array it
  hands to a parent (a GEMM result, ``g * mask``, a reduction, a zero-filled
  scatter target) calls ``parent._accumulate(buf, owned=True)`` and the
  engine stores ``buf`` itself on first arrival.  The closure must not
  keep, reuse or donate that buffer again, and must never donate a view of
  something it keeps — the incoming ``g``, a saved activation, ``_scratch``.
* **A pass-through copies.**  Ops whose gradient *is* ``g`` or a view of it
  (``add``, ``sub``'s left operand, ``reshape``, ``transpose``, ``pad``,
  ``concat``, ``sum``'s broadcast view) call ``_accumulate(g)`` and the
  engine copies: ``g`` is the consumer node's own ``.grad``, which the root
  retains and a sibling parent may receive too.  The root's seed gradient is
  copied for the same reason.
* **Consumers may mutate or take.**  Because a ``.grad`` is exclusively its
  tensor's, an optimizer, a clipper or the AMP unscale may update ``p.grad``
  in place, and :class:`repro.distributed.DistributedTrainer` moves each
  worker's ``p.grad`` arrays out of the model instead of copying them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from . import backend as _backend
from . import profiler as _profiler

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "graph_nodes_created"]

DEFAULT_DTYPE = np.float32

# ---------------------------------------------------------------------------
# Global autograd switch (mirrors torch.no_grad semantics).
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True

# Optional observer called as ``GRAD_ARRIVAL_HOOK(tensor)`` the moment a
# leaf's gradient is first materialized during backward.  The DDP overlap
# simulator installs one to measure when each parameter's gradient becomes
# ready (the signal that lets a gradient bucket start communicating while
# the rest of the backward pass still runs).  ``None`` (the default) costs
# a single global read on the first accumulation per tensor.
GRAD_ARRIVAL_HOOK = None


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


# Monotonic count of autograd graph nodes recorded since process start.
# Eval paths must leave it untouched: serving forwards and Trainer
# evaluation run under ``no_grad``, and the regression tests assert the
# delta across an evaluation is exactly zero (any nonzero delta means a
# code path silently rebuilt the graph — wasted memory and time that
# the serving latency profiles would otherwise absorb as noise).
_GRAPH_NODES_CREATED = 0


def graph_nodes_created() -> int:
    """Total autograd nodes recorded so far (monotonic; compare deltas)."""
    return _GRAPH_NODES_CREATED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting prepends singleton axes and stretches length-1 axes; the
    adjoint of both is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched length-1 axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating data is kept in
        ``float32`` unless another float dtype is passed explicitly.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_seq")

    # Monotonic creation counter.  Backward executes nodes in reverse
    # creation order — a valid topological order (an op's parents always
    # exist before its output) that also keeps execution *layer-local*:
    # side branches such as the ``x.T`` node inside LowRankLSTMLayer run
    # right after the op that consumed them, so leaf gradients materialize
    # in reverse layer order instead of piling up at the end of the pass.
    # The DDP overlap simulator's measured bucket-ready times depend on
    # this promptness.
    _seq_counter = itertools.count()

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind == "f" and dtype is None:
            arr = arr.astype(DEFAULT_DTYPE, copy=False)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op: str = ""
        self._seq: int = next(Tensor._seq_counter)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str = "",
    ) -> "Tensor":
        """Build an op output, recording the graph only when tracking is on."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data)
        out.requires_grad = requires
        if requires:
            global _GRAPH_NODES_CREATED
            _GRAPH_NODES_CREATED += 1
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` donates ``grad``: the caller built it for this call
        and holds no other reference, so the first arrival adopts the buffer
        instead of copying it (see the module docstring's ownership rules).
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            # The adjoint of broadcasting is a sum, which builds a new array.
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
            if GRAD_ARRIVAL_HOOK is not None:
                GRAD_ARRIVAL_HOOK(self)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Reachable set via iterative DFS (recursion would overflow on
        # deep nets such as ResNet-50), then execute in reverse *creation*
        # order.  Creation order is a topological order of the recorded
        # graph (parents exist before their outputs), and unlike DFS
        # postorder it keeps execution layer-local: side branches run
        # immediately after their consumer, so leaf gradients arrive in
        # reverse layer order — the property the DDP bucket-overlap
        # measurement relies on.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            topo.append(node)
            for p in node._parents:
                if id(p) not in visited:
                    stack.append(p)
        topo.sort(key=lambda t: t._seq, reverse=True)

        # Seed and propagate.  Gradients flow through ``grad`` buffers on
        # each node; intermediate buffers are released as soon as a node
        # has been processed.
        self._accumulate_out(grad)
        for node in topo:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self and not node._is_leaf():
                    node.grad = None  # free intermediate gradient memory

    def _accumulate_out(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
            if GRAD_ARRIVAL_HOOK is not None:
                GRAD_ARRIVAL_HOOK(self)
        else:
            self.grad += grad

    def _is_leaf(self) -> bool:
        return self._backward is None

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._from_op(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(-g, owned=True)

        return Tensor._from_op(self.data - other.data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(g * self.data, owned=True)

        return Tensor._from_op(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data * other.data), owned=True)

        return Tensor._from_op(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other) / self

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g, owned=True)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._from_op(out_data, (self,), backward, "pow")

    # Comparison helpers return plain (non-differentiable) tensors.
    def __gt__(self, other):
        return Tensor(self.data > (other.data if isinstance(other, Tensor) else other))

    def __lt__(self, other):
        return Tensor(self.data < (other.data if isinstance(other, Tensor) else other))

    # ------------------------------------------------------------------
    # Transcendental / nonlinear elementwise ops
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data, owned=True)

        return Tensor._from_op(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / out_data, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data * out_data), owned=True)

        return Tensor._from_op(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: evaluate each branch only where it is
        # stable (avoids exp overflow on large |x|).
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data), owned=True)

        return Tensor._from_op(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        out_data, mask = _backend.active().relu(self.data)

        def backward(g: np.ndarray) -> None:
            # Backends may skip materializing the mask on the forward pass
            # (``out > 0`` is identical to ``x > 0``, including at ±0).
            m = mask if mask is not None else out_data > 0
            self._accumulate(g * m, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * sign, owned=True)

        return Tensor._from_op(np.abs(self.data), (self,), backward, "abs")

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask, owned=True)

        return Tensor._from_op(np.clip(self.data, lo, hi), (self,), backward, "clip")

    def maximum(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        mask = self.data >= other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, owned=True)
            if other.requires_grad:
                other._accumulate(g * ~mask, owned=True)

        return Tensor._from_op(
            np.maximum(self.data, other.data), (self, other), backward, "maximum"
        )

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting 2-D and batched (>2-D) operands."""
        other = Tensor._coerce(other)
        out_data = _backend.active().matmul(self.data, other.data)
        if _profiler.profiling_active():
            # MACs = (#output elements) × (contracted dimension).
            k = self.data.shape[-1]
            _profiler.record_gemm(int(np.prod(out_data.shape)) * k)

        def backward(g: np.ndarray) -> None:
            # Each operand's GEMM runs only if that operand wants a
            # gradient; ``_accumulate`` sums away broadcast batch axes.
            a, b = self.data, other.data
            if self.requires_grad:
                if a.ndim == 1 or b.ndim > 1:
                    ga = g @ np.swapaxes(b, -1, -2)
                else:
                    ga = np.outer(g, b)
                self._accumulate(ga, owned=True)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    gb = a * g
                else:
                    gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(gb, owned=True)

        return Tensor._from_op(out_data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
            else:
                g_exp = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g_exp, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                mask = self.data == out_data
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = self.data == expanded
                g = g if keepdims else np.expand_dims(g, axis)
            # Spread the gradient evenly over ties.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(in_shape))

        return Tensor._from_op(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inv))

        return Tensor._from_op(self.data.transpose(axes), (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "getitem")

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows ``np.pad`` convention."""
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.data.shape)
        )

        def backward(g: np.ndarray) -> None:
            self._accumulate(g[slices])

        return Tensor._from_op(out_data, (self,), backward, "pad")

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

        return Tensor._from_op(out_data, tensors, backward, "concat")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(
        *shape, rng: np.random.Generator | None = None, requires_grad: bool = False
    ) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(
            rng.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad
        )
