"""Low-rank (pre-factorized) layers — the Pufferfish building blocks.

Each class mirrors a vanilla layer from :mod:`repro.nn` with its weight
matrix replaced by trainable factors ``U V^T`` of rank ``r`` (Section 2 of
the paper):

* :class:`LowRankLinear` — ``W (out×in) ≈ U (out×r) · V^T (r×in)``.
* :class:`LowRankConv2d` — a thin ``r``-filter convolution ``U`` followed by
  a ``1×1`` convolution ``V^T`` mixing the ``r`` basis responses back to
  ``c_out`` channels (Fig. 1).
* :class:`LowRankLSTMLayer` — every gate matrix of both the input-hidden and
  hidden-hidden paths factorized separately with a shared rank, giving the
  Table 1 parameter count ``4dr + 12hr``.  It runs :class:`repro.nn.LSTMLayer`'s
  time loop with its own two gate projections; a stacked low-rank LSTM is a
  :class:`repro.nn.LSTM` holding these layers, which is what
  :func:`repro.core.build_hybrid` makes of one.

Attention and FFN blocks are factorized by swapping their internal
``Linear`` projections for :class:`LowRankLinear` (the appendix-D shapes,
e.g. ``U^Q ∈ R^{512×128}``), so no dedicated class is needed.
"""

from __future__ import annotations

import math

import numpy as np

from ..nn import init
from ..nn.conv import Conv2d
from ..nn.module import Module, Parameter
from ..nn.rnn import _LSTMRecurrence
from ..tensor import Tensor, functional

__all__ = ["LowRankLinear", "LowRankConv2d", "LowRankLSTMLayer"]


class LowRankLinear(Module):
    """Affine map through rank-``r`` factors: ``y = (x V) U^T + b``."""

    def __init__(self, in_features: int, out_features: int, rank: int, bias: bool = True):
        super().__init__()
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.in_features = in_features
        self.out_features = out_features
        self.rank = rank
        # Scale init so the product U V^T matches a Kaiming-initialized W.
        self.u = Parameter(init.kaiming_uniform((out_features, rank)))
        self.vt = Parameter(init.kaiming_uniform((rank, in_features)))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return functional.linear(functional.linear(x, self.vt), self.u, self.bias)

    def effective_weight(self) -> np.ndarray:
        """Materialize ``U V^T`` (for tests and analysis)."""
        return self.u.data @ self.vt.data

    def __repr__(self) -> str:
        return (
            f"LowRankLinear(in={self.in_features}, out={self.out_features}, "
            f"rank={self.rank}, bias={self.bias is not None})"
        )


class LowRankConv2d(Module):
    """Factorized convolution: ``conv_u`` (r filters, k×k) then ``conv_v`` (1×1).

    Parameter count ``c_in·r·k² + r·c_out`` and complexity
    ``O(r c_in k² HW + r HW c_out)`` per Table 1.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.rank = rank
        self.stride = stride
        self.padding = padding
        self.conv_u = Conv2d(
            in_channels, rank, kernel_size, stride=stride, padding=padding, bias=False
        )
        self.conv_v = Conv2d(rank, out_channels, 1, stride=1, padding=0, bias=bias)

    @property
    def bias(self):
        return self.conv_v.bias

    def forward(self, x: Tensor) -> Tensor:
        return self.conv_v(self.conv_u(x))

    def effective_weight(self) -> np.ndarray:
        """Materialize the equivalent full 4-D kernel ``(c_out, c_in, k, k)``."""
        u = self.conv_u.weight.data.reshape(self.rank, -1)  # (r, c_in*k*k)
        v = self.conv_v.weight.data.reshape(self.out_channels, self.rank)  # (c_out, r)
        return (v @ u).reshape(
            self.out_channels, self.in_channels, self.kernel_size, self.kernel_size
        )

    def __repr__(self) -> str:
        return (
            f"LowRankConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, rank={self.rank}, s={self.stride}, p={self.padding})"
        )


class LowRankLSTMLayer(_LSTMRecurrence):
    """LSTM layer with every gate matrix factorized at a shared rank.

    Factors are stored stacked over the gate axis — ``u_ih (4, h, r)``,
    ``vt_ih (4, r, d)`` — so the whole-gate projection is two batched GEMMs
    per step instead of eight separate ones.  Gate order is (i, f, g, o),
    matching :class:`repro.nn.LSTMLayer` Eq. (2).  Not an ``LSTMLayer``
    itself, so :func:`repro.core.factorizable_leaves` never factorizes it again.
    """

    def __init__(self, input_size: int, hidden_size: int, rank: int):
        super().__init__()
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.rank = rank
        bound = 1.0 / math.sqrt(hidden_size)
        h, d, r = hidden_size, input_size, rank
        self.u_ih = Parameter(init.uniform((4, h, r), bound))
        self.vt_ih = Parameter(init.uniform((4, r, d), bound))
        self.u_hh = Parameter(init.uniform((4, h, r), bound))
        self.vt_hh = Parameter(init.uniform((4, r, h), bound))
        self.bias_ih = Parameter(init.uniform((4 * h,), bound))
        self.bias_hh = Parameter(init.uniform((4 * h,), bound))

    def _project(self, x: Tensor, u: Parameter, vt: Parameter) -> Tensor:
        """(N, in) -> (N, 4h) through the stacked per-gate factors."""
        n = x.shape[0]
        # (4, r, in) @ (in, N) -> (4, r, N); (4, h, r) @ (4, r, N) -> (4, h, N)
        mid = vt @ x.T
        gates = u @ mid  # (4, h, N)
        return gates.transpose(2, 0, 1).reshape(n, 4 * self.hidden_size)

    def _input_gates(self, x: Tensor) -> Tensor:
        t, b, _ = x.shape
        flat = x.reshape(t * b, self.input_size)
        gates = self._project(flat, self.u_ih, self.vt_ih) + self.bias_ih
        return gates.reshape(t, b, 4 * self.hidden_size)

    def _hidden_gates(self, h: Tensor) -> Tensor:
        return self._project(h, self.u_hh, self.vt_hh) + self.bias_hh

    def __repr__(self) -> str:
        return (
            f"LowRankLSTMLayer(in={self.input_size}, hidden={self.hidden_size}, "
            f"rank={self.rank})"
        )
