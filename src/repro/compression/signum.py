"""Signum (Bernstein et al. 2018): communicate only the sign of the local
momentum, aggregate by majority vote.

1 bit per coordinate on the wire, but the encoding is not sum-compatible,
so the simulator charges an allgather whose cost (and decode work — one
unpack+add per peer) scales with the node count.  This is the effect the
paper measures in Fig. 4: high compression ratio, yet slower than
Pufferfish end-to-end.
"""

from __future__ import annotations

import numpy as np

from .base import Compressor, EncodeResult, register_compressor, require_finite

__all__ = ["Signum"]


@register_compressor
class Signum(Compressor):
    allreduce_compatible = False
    name = "signum"
    # Majority vote recovers only the coordinate signs of the mean
    # momentum; the property suite checks sign agreement, not values.
    agg_contract = "sign"
    agg_tolerance = 0.0

    def __init__(self, num_workers: int, momentum: float = 0.9):
        super().__init__(num_workers)
        self.momentum = momentum
        self._momenta: dict[tuple[int, int], np.ndarray] = {}

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        # A NaN folded into the momentum would pack as a sign bit forever.
        require_finite(grads, f"worker {worker}'s gradient")
        signs = []
        shapes = []
        nbytes = 0
        for i, g in enumerate(grads):
            key = (worker, layer_offset + i)
            buf = self._momenta.get(key)
            if buf is None:
                buf = np.zeros_like(g, dtype=np.float32)
                self._momenta[key] = buf
            buf *= self.momentum
            buf += (1 - self.momentum) * g
            # Pack the sign bits for an honest wire-size (and to pay the real
            # encoding cost the paper's appendix F discusses).
            bits = np.packbits(buf.reshape(-1) >= 0)
            signs.append(bits)
            shapes.append(g.shape)
            nbytes += bits.nbytes
        return EncodeResult(payload=(signs, shapes), nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        _, shapes = results[0].payload
        out = []
        for i, shape in enumerate(shapes):
            size = int(np.prod(shape))
            votes = np.zeros(size, dtype=np.int32)
            for res in results:
                bits = np.unpackbits(res.payload[0][i], count=size)
                votes += bits.astype(np.int32) * 2 - 1  # {0,1} -> {-1,+1}
            out.append(np.sign(votes).astype(np.float32).reshape(shape))
        return out
