"""LSTM layers (Hochreiter & Schmidhuber 1997), from scratch.

The vanilla layer keeps the PyTorch parameterization — concatenated
``weight_ih (4h, d)`` / ``weight_hh (4h, h)`` with gate order (i, f, g, o) —
so one GEMM per time step computes all four gates, and the per-layer
parameter count is exactly the paper's Table 1 entry ``4(dh + h^2)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor, functional
from . import init
from .dropout import Dropout
from .module import Module, Parameter

__all__ = ["LSTMLayer", "LSTM", "lstm_step"]


def lstm_step(
    x_t: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    gates_x: Tensor,
    gates_h: Tensor,
    hidden: int,
) -> tuple[Tensor, Tensor]:
    """One LSTM recurrence given pre-computed gate pre-activations.

    ``gates_x``/``gates_h`` are ``(B, 4h)`` contributions from the input and
    hidden paths; gate order is (input, forget, cell, output) as in Eq. (1).
    """
    gates = gates_x + gates_h
    i = gates[:, 0 * hidden : 1 * hidden].sigmoid()
    f = gates[:, 1 * hidden : 2 * hidden].sigmoid()
    g = gates[:, 2 * hidden : 3 * hidden].tanh()
    o = gates[:, 3 * hidden : 4 * hidden].sigmoid()
    c_t = f * c_prev + i * g
    h_t = o * c_t.tanh()
    return h_t, c_t


class LSTMLayer(Module):
    """A single LSTM layer run over a ``(T, B, d)`` sequence."""

    def __init__(self, input_size: int, hidden_size: int):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), bound))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), bound))
        self.bias_ih = Parameter(init.uniform((4 * hidden_size,), bound))
        self.bias_hh = Parameter(init.uniform((4 * hidden_size,), bound))

    def _input_gates(self, x: Tensor) -> Tensor:
        """Gate pre-activations from the input path for the whole sequence."""
        return functional.linear(x, self.weight_ih, self.bias_ih)

    def _hidden_gates(self, h: Tensor) -> Tensor:
        return functional.linear(h, self.weight_hh, self.bias_hh)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        t, b, _ = x.shape
        if state is None:
            h = Tensor(np.zeros((b, self.hidden_size), dtype=np.float32))
            c = Tensor(np.zeros((b, self.hidden_size), dtype=np.float32))
        else:
            h, c = state

        # Input-path gates for all steps in one GEMM; hidden path per step.
        gx_all = self._input_gates(x)
        outputs: list[Tensor] = []
        for step in range(t):
            gx = gx_all[step]
            gh = self._hidden_gates(h)
            h, c = lstm_step(x[step], h, c, gx, gh, self.hidden_size)
            outputs.append(h.reshape(1, b, self.hidden_size))
        out = Tensor.concat(outputs, axis=0)
        return out, (h, c)

    def __repr__(self) -> str:
        return f"LSTMLayer(in={self.input_size}, hidden={self.hidden_size})"


class LSTM(Module):
    """Stacked LSTM with inter-layer dropout, mirroring ``torch.nn.LSTM``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        dropout: float = 0.0,
    ):
        super().__init__()
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        from .container import ModuleList

        self.layers = ModuleList(
            LSTMLayer(input_size if i == 0 else hidden_size, hidden_size)
            for i in range(num_layers)
        )
        self.dropout = Dropout(dropout) if dropout > 0 else None

    def forward(
        self, x: Tensor, states: list[tuple[Tensor, Tensor]] | None = None
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        new_states: list[tuple[Tensor, Tensor]] = []
        out = x
        for i, layer in enumerate(self.layers):
            state = states[i] if states is not None else None
            out, s = layer(out, state)
            new_states.append(s)
            if self.dropout is not None and i < self.num_layers - 1:
                out = self.dropout(out)
        return out, new_states
