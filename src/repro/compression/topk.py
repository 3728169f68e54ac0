"""Top-k sparsification with error feedback (Stich et al. 2018; Lin et al.
2017's deep gradient compression family).

Each worker keeps only the ``k`` largest-magnitude coordinates of
(gradient + residual); the rest accumulate in the residual for later
rounds.  Wire format: k × (int32 index + fp32 value).  Sparse payloads are
not sum-compatible with a ring allreduce → allgather.

The appendix E discussion — that Pufferfish composes best with compressors
that work on the *flattened* gradient such as Top-k — is tested by the
Fig. 6 benchmark using this class.
"""

from __future__ import annotations

import numpy as np

from .base import FLOAT32_BYTES, Compressor, EncodeResult, register_compressor, require_finite

__all__ = ["TopK"]

INT32_BYTES = 4


@register_compressor
class TopK(Compressor):
    allreduce_compatible = False
    name = "topk"
    # Exact mean when nothing is dropped (ratio=1, empty residuals).
    agg_contract = "dense"
    agg_tolerance = 1e-6

    def __init__(self, num_workers: int, ratio: float = 0.01, error_feedback: bool = True):
        super().__init__(num_workers)
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.error_feedback = error_feedback
        self._errors: dict[int, np.ndarray] = {}

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        # Operates on the flat buffer (appendix E's preferred composition).
        flat = np.concatenate([g.reshape(-1) for g in grads]).astype(np.float32)
        shapes = [g.shape for g in grads]
        # The selection would send some non-finite entries and park the rest
        # in the residual.
        require_finite((flat,), f"worker {worker}'s gradient")
        if self.error_feedback:
            err = self._errors.get(worker)
            if err is not None:
                flat = flat + err
        k = max(1, int(self.ratio * flat.size))
        idx = np.argpartition(np.abs(flat), -k)[-k:]
        values = flat[idx]
        if self.error_feedback:
            residual = flat.copy()
            residual[idx] = 0.0
            self._errors[worker] = residual
        nbytes = k * (INT32_BYTES + FLOAT32_BYTES)
        return EncodeResult(
            payload=(idx.astype(np.int32), values, flat.size, shapes), nbytes=nbytes
        )

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        _, _, size, shapes = results[0].payload
        acc = np.zeros(size, dtype=np.float64)
        for res in results:
            idx, values, _, _ = res.payload
            np.add.at(acc, idx, values)
        acc /= len(results)
        out = []
        offset = 0
        for shape in shapes:
            n = int(np.prod(shape))
            out.append(acc[offset : offset + n].astype(np.float32).reshape(shape))
            offset += n
        return out

    def error_norm(self, worker: int) -> float:
        err = self._errors.get(worker)
        if err is None:
            return 0.0
        return float(np.linalg.norm(err.astype(np.float64)))
