"""Spectral analysis of layer weights.

The paper's closing observation — "winning tickets seem to be in abundance
once we seek models that are sparse in their spectral domain" — is a claim
about the singular-value spectra of (partially) trained weights.  This
module provides the measurement tools: per-layer spectra, normalized
energy curves, and two standard scalar summaries:

* **effective rank** (Roy & Vetterli 2007): ``exp(H(σ²/Σσ²))`` — the
  entropy-based count of "active" spectral directions.
* **stable rank**: ``‖W‖_F² / ‖W‖₂²`` — a robust lower bound on rank.

The automatic rank-allocation policy in :mod:`repro.core.rank_allocation`
is built directly on :func:`energy_rank`.
"""

from __future__ import annotations

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.rnn import LSTMLayer
from .factorize import _lstm_gates, unroll_conv_weight
from .linalg import naming, svdvals

__all__ = [
    "singular_values",
    "energy_curve",
    "energy_rank",
    "effective_rank",
    "stable_rank",
    "layer_spectra",
]


def singular_values(w: np.ndarray) -> np.ndarray:
    """Singular values of a layer weight in its factorization geometry.

    2-D weights are used as-is; 4-D conv kernels go through the paper's
    ``(c_in k², c_out)`` unrolling so the spectrum matches what truncated
    SVD would act on.
    """
    if w.ndim == 4:
        w = unroll_conv_weight(w)
    elif w.ndim != 2:
        raise ValueError(f"expected 2-D or 4-D weight, got shape {w.shape}")
    return svdvals(w.astype(np.float64), "the weight", np.linalg.LinAlgError)


def energy_curve(s: np.ndarray) -> np.ndarray:
    """Cumulative normalized spectral energy: ``E[k] = Σ_{i<=k} σᵢ² / Σ σ²``."""
    energy = s.astype(np.float64) ** 2
    total = energy.sum()
    if total == 0:
        return np.ones_like(energy)
    return np.cumsum(energy) / total


def energy_rank(s: np.ndarray, threshold: float = 0.9) -> int:
    """Smallest rank capturing ``threshold`` of the spectral energy."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    curve = energy_curve(s)
    return int(np.searchsorted(curve, threshold - 1e-12) + 1)


def effective_rank(s: np.ndarray) -> float:
    """Entropy-based effective rank, ``exp(H(p))`` with ``p = σ/Σσ``."""
    s = s.astype(np.float64)
    total = s.sum()
    if total == 0:
        return 0.0
    p = s / total
    p = p[p > 0]
    return float(np.exp(-(p * np.log(p)).sum()))


def stable_rank(s: np.ndarray) -> float:
    """``‖W‖_F² / ‖W‖₂²`` from the singular values."""
    if s.size == 0 or s[0] == 0:
        return 0.0
    return float((s**2).sum() / s[0] ** 2)


def layer_spectra(model: Module) -> dict[str, np.ndarray]:
    """Singular values for every factorizable leaf of ``model``.

    LSTM layers contribute one entry per gate matrix
    (``<path>.ih_{gate}`` / ``<path>.hh_{gate}``).  A weight that is not
    finite raises ``np.linalg.LinAlgError`` naming its layer.
    """
    out: dict[str, np.ndarray] = {}
    for path, mod in model.named_modules():
        with naming(path):
            if isinstance(mod, (Linear, Conv2d)):
                out[path] = singular_values(mod.weight.data)
            elif isinstance(mod, LSTMLayer):
                h = mod.hidden_size
                gates_ih = _lstm_gates(mod.weight_ih.data, h)
                gates_hh = _lstm_gates(mod.weight_hh.data, h)
                for name, w_ih, w_hh in zip("ifgo", gates_ih, gates_hh):
                    out[f"{path}.ih_{name}"] = singular_values(w_ih)
                    out[f"{path}.hh_{name}"] = singular_values(w_hh)
    return out
