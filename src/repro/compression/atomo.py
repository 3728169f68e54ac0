"""ATOMO (Wang et al. 2018): unbiased atomic sparsification of gradients in
the singular-value (spectral) domain.

The paper's introduction names ATOMO as the motivating example of a
compressor whose *per-step* cost is prohibitive: "ATOMO requires to
compute gradient factorizations using SVD for every single batch".
Pufferfish's whole design replaces this per-step SVD with a single SVD at
the warm-up boundary.  Implementing ATOMO lets the benchmarks measure that
trade-off directly.

Algorithm (spectral-ATOMO, sparsity budget ``s``): per matrix gradient,
compute the SVD, then sample each rank-1 atom ``σᵢ uᵢ vᵢᵀ`` with the
probabilities produced by ATOMO's water-filling scheme (∝ σᵢ, clipped at
1, renormalized to sum to ``s``); kept atoms are rescaled by ``1/pᵢ`` so
the estimate stays unbiased.

Kept for: ``benchmarks/test_ablation_extensions.py`` (the per-step-SVD cost
the introduction argues against) and ``--compressor atomo`` in the bake-off.
"""

from __future__ import annotations

import numpy as np

from ..utils import spawn_rng
from .base import FLOAT32_BYTES, Compressor, EncodeResult, register_compressor

__all__ = ["Atomo", "atomo_probabilities"]


def atomo_probabilities(sigma: np.ndarray, budget: float) -> np.ndarray:
    """ATOMO's closed-form sampling probabilities.

    Water-filling: scale ``σ / Σσ · s`` and clip at 1; mass clipped off is
    redistributed over the unclipped entries until convergence.  A spectrum
    that is not finite keeps every atom (probability 1), so a poisoned
    gradient reaches the decoded layer instead of silently vanishing.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.isfinite(sigma).all():
        return np.ones_like(sigma)
    if sigma.sum() == 0:
        return np.zeros_like(sigma)
    budget = min(budget, float(len(sigma)))
    p = np.zeros_like(sigma)
    active = np.ones(len(sigma), dtype=bool)
    remaining = budget
    for _ in range(len(sigma)):
        mass = sigma[active].sum()
        if mass == 0 or remaining <= 0:
            break
        scaled = sigma[active] / mass * remaining
        if (scaled <= 1.0 + 1e-12).all():
            p[active] = np.minimum(scaled, 1.0)
            break
        # Clip the overflowing atoms to probability 1 and recurse.
        idx = np.where(active)[0]
        over = idx[scaled > 1.0]
        p[over] = 1.0
        active[over] = False
        remaining = budget - p.sum()
    return np.clip(p, 0.0, 1.0)


@register_compressor
class Atomo(Compressor):
    """Spectral ATOMO with per-batch SVD.

    Parameters
    ----------
    budget: expected number of rank-1 atoms kept per matrix (the paper's
        sparsity budget ``s``).
    """

    allreduce_compatible = False  # sampled atom sets differ per worker
    name = "atomo"
    # Kept atoms are rescaled by 1/p, so the estimate is unbiased.
    agg_contract = "unbiased"
    agg_tolerance = 0.25

    def __init__(self, num_workers: int, budget: int = 3):
        super().__init__(num_workers)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self._rng = spawn_rng()

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        payloads = []
        nbytes = 0
        for g in grads:
            if g.ndim < 2:
                payloads.append(("raw", g.copy()))
                nbytes += g.size * FLOAT32_BYTES
                continue
            m = g.reshape(g.shape[0], -1).astype(np.float64)
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            p = atomo_probabilities(s, self.budget)
            keep = self._rng.random(len(s)) < p
            # Unbiased rescale of kept atoms.
            scale = np.zeros_like(s)
            scale[keep] = s[keep] / np.maximum(p[keep], 1e-12)
            idx = np.where(keep)[0]
            payloads.append(
                ("atoms", u[:, idx].astype(np.float32),
                 scale[idx].astype(np.float32), vt[idx].astype(np.float32),
                 g.shape)
            )
            nbytes += int(idx.size) * (m.shape[0] + m.shape[1] + 1) * FLOAT32_BYTES
        return EncodeResult(payload=payloads, nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        n_workers = len(results)
        n_layers = len(results[0].payload)
        out: list[np.ndarray] = []
        for i in range(n_layers):
            first = results[0].payload[i]
            if first[0] == "raw":
                acc = np.zeros_like(first[1], dtype=np.float64)
                for res in results:
                    acc += res.payload[i][1]
                out.append((acc / n_workers).astype(np.float32))
                continue
            shape = first[4]
            acc = np.zeros((shape[0], int(np.prod(shape[1:]))), dtype=np.float64)
            for res in results:
                _, u, scale, vt, _ = res.payload[i]
                if scale.size:
                    acc += (u * scale) @ vt
            out.append((acc / n_workers).astype(np.float32).reshape(shape))
        return out
