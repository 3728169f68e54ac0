"""Stochastic binary quantization (Suresh et al. 2016), the Appendix-F
case study.

Each tensor is quantized to one bit per coordinate: coordinate ``x`` in
``[min, max]`` becomes ``max`` with probability ``(x-min)/(max-min)`` and
``min`` otherwise — an unbiased estimator with only two fp32 scalars of
side information.  Cheap to *encode*; the expensive part the paper measures
is *decoding*: with allgather every worker unpacks and sums ``p`` bit
streams, so decode time scales linearly in the node count (Fig. 7).

Kept for: ``benchmarks/test_fig7_binary_quant.py`` (Fig. 7 / Appendix F).
"""

from __future__ import annotations

import numpy as np

from ..utils import spawn_rng
from .base import FLOAT32_BYTES, Compressor, EncodeResult, register_compressor

__all__ = ["StochasticBinary"]


@register_compressor
class StochasticBinary(Compressor):
    allreduce_compatible = False
    name = "binary"
    # One-bit quantization is unbiased per coordinate.
    agg_contract = "unbiased"
    agg_tolerance = 0.25

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._rng = spawn_rng()

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        payloads = []
        nbytes = 0
        for g in grads:
            flat = g.reshape(-1).astype(np.float32)
            lo = float(flat.min())
            hi = float(flat.max())
            if hi - lo < 1e-12:
                bits = np.zeros((flat.size + 7) // 8, dtype=np.uint8)
            else:
                prob = (flat - lo) / (hi - lo)
                bits = np.packbits(self._rng.random(flat.size) < prob)
            payloads.append((lo, hi, bits, g.shape))
            nbytes += 2 * FLOAT32_BYTES + bits.nbytes
        return EncodeResult(payload=payloads, nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        n_workers = len(results)
        n_layers = len(results[0].payload)
        out = []
        for i in range(n_layers):
            shape = results[0].payload[i][3]
            size = int(np.prod(shape))
            acc = np.zeros(size, dtype=np.float64)
            for res in results:
                lo, hi, bits, _ = res.payload[i]
                values = np.unpackbits(bits, count=size).astype(np.float64)
                acc += values * (hi - lo) + lo
            out.append((acc / n_workers).astype(np.float32).reshape(shape))
        return out
