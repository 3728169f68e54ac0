"""MAC (multiply-accumulate) counting.

Two complementary routes:

* :func:`measure_macs` — run one real forward pass under the engine's
  instrumented kernels and report exactly what was executed.  This is the
  number reported in EXPERIMENTS.md (the paper likewise measures a single
  forward pass).
* Analytic formulas from Table 1 (:func:`fc_macs` … :func:`ffn_macs`),
  used by the Table 1 benchmark to validate the measured counts.
"""

from __future__ import annotations


from ..nn.module import Module
from ..tensor import count_macs, no_grad

__all__ = [
    "measure_macs",
    "fc_macs",
    "lowrank_fc_macs",
    "conv_macs",
    "lowrank_conv_macs",
    "lstm_macs",
    "lowrank_lstm_macs",
    "attention_macs",
    "lowrank_attention_macs",
    "ffn_macs",
    "lowrank_ffn_macs",
    "fc_params",
    "lowrank_fc_params",
    "conv_params",
    "lowrank_conv_params",
    "lstm_params",
    "lowrank_lstm_params",
    "attention_params",
    "lowrank_attention_params",
    "ffn_params",
    "lowrank_ffn_params",
]


def measure_macs(model: Module, *example_inputs) -> int:
    """Forward-pass MACs for one example (paper's single-input convention).

    ``example_inputs`` are passed to ``model(...)`` verbatim; wrap arrays in
    :class:`Tensor` yourself if the model expects tensors.
    """
    model.eval()
    with no_grad(), count_macs() as counter:
        model(*example_inputs)
    return counter.total


# ---------------------------------------------------------------------------
# Table 1 closed forms — parameters
# ---------------------------------------------------------------------------

def fc_params(m: int, n: int) -> int:
    return m * n


def lowrank_fc_params(m: int, n: int, r: int) -> int:
    return r * (m + n)


def conv_params(c_in: int, c_out: int, k: int) -> int:
    return c_in * c_out * k * k


def lowrank_conv_params(c_in: int, c_out: int, k: int, r: int) -> int:
    return c_in * r * k * k + r * c_out


def lstm_params(d: int, h: int) -> int:
    return 4 * (d * h + h * h)


def lowrank_lstm_params(d: int, h: int, r: int) -> int:
    return 4 * d * r + 12 * h * r


def attention_params(p: int, d: int) -> int:
    return 4 * p * p * d * d


def lowrank_attention_params(p: int, d: int, r: int) -> int:
    return (3 * p + 5) * p * r * d


def ffn_params(p: int, d: int) -> int:
    return 8 * p * p * d * d


def lowrank_ffn_params(p: int, d: int, r: int) -> int:
    return 10 * p * d * r


# ---------------------------------------------------------------------------
# Table 1 closed forms — MACs (weights only, biases/softmax ignored, as the
# paper's complexity columns do)
# ---------------------------------------------------------------------------

def fc_macs(m: int, n: int) -> int:
    return m * n


def lowrank_fc_macs(m: int, n: int, r: int) -> int:
    return r * (m + n)


def conv_macs(c_in: int, c_out: int, k: int, h: int, w: int) -> int:
    return c_in * c_out * k * k * h * w


def lowrank_conv_macs(c_in: int, c_out: int, k: int, h: int, w: int, r: int) -> int:
    return r * c_in * k * k * h * w + r * h * w * c_out


def lstm_macs(d: int, h: int) -> int:
    return 4 * (d * h + h * h)


def lowrank_lstm_macs(d: int, h: int, r: int) -> int:
    return 4 * (d * r + r * h) + 4 * (h * r + r * h)


def attention_macs(p: int, d: int, n: int) -> int:
    """One encoder self-attention: projections + score/context matmuls."""
    pd = p * d
    return 3 * pd * d * p * n + 2 * n * n * pd + pd * pd * n


def lowrank_attention_macs(p: int, d: int, n: int, r: int) -> int:
    """The paper's low-rank self-attention (Table 1): Q, K and V factorized
    per head (``p`` heads of width ``d``, rank ``r``), the output projection
    as one rank-``r`` pair, plus the score/context matmuls.

    The hybrid Transformer built here counts differently: it factorizes each
    stacked ``pd × pd`` projection as one ``LowRankLinear``, four times
    ``lowrank_fc_macs(pd, pd, r) · n`` plus the same score/context term —
    757 760 MACs against this formula's 2 478 080 at p = 8, d = 64, n = 10,
    r = 16.
    """
    pd = p * d
    proj = 3 * p * (pd * r + r * d) * n  # per-head factorized Q/K/V
    out = (pd * r + r * pd) * n
    scores = 2 * n * n * pd
    return proj + out + scores


def ffn_macs(p: int, d: int, n: int) -> int:
    pd = p * d
    return 2 * (pd * 4 * pd) * n


def lowrank_ffn_macs(p: int, d: int, n: int, r: int) -> int:
    pd = p * d
    return (pd * r + r * 4 * pd) * n + (4 * pd * r + r * pd) * n
