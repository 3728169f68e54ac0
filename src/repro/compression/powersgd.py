"""PowerSGD (Vogels et al. 2019): rank-r gradient compression via a single
power-iteration step, with error feedback and warm-started Q factors.

Matrix-shaped gradients ``M (n×m)`` are approximated as ``P Q^T`` where
``P = M Q`` (orthogonalized) and ``Q = M^T P``; both P and Q are
sum-compatible, so PowerSGD — unlike sign/top-k schemes — rides the ring
allreduce, which is why it is the strongest compression baseline in the
paper.  Rank-1 tensors (biases, BN parameters) are sent uncompressed, as
in the reference implementation.

Determinism: the warm-start Q for global layer ``i`` with ``m`` columns is
drawn from ``default_rng([seed, i, m])`` — a pure function of the
construction-time ``seed`` and the layer's identity, independent of the
order layers are first encoded in.  Two instances built with the same
seed therefore reproduce each other exactly, and per-bucket encoding
(which visits layers in bucket order, not forward order) is bit-identical
to whole-gradient encoding.
"""

from __future__ import annotations

import numpy as np

from .base import (
    FLOAT32_BYTES,
    Compressor,
    EncodeResult,
    ResidualStore,
    register_compressor,
)

__all__ = ["PowerSGD"]


def _orthogonalize(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns' span: the ``Q`` of a Householder QR
    (``np.linalg.qr``) in float64.  The PowerSGD paper uses single-pass
    Gram-Schmidt here; on ``ddp_powersgd`` the QRs of an iteration's four
    rank-4 ``P`` measure ~0.1 ms of its ~9 ms decode
    (``distributed.decode_ms_per_iter``), so they are not the bottleneck."""
    q, _ = np.linalg.qr(m.astype(np.float64))
    return q.astype(np.float32)


def _as_matrix(g: np.ndarray) -> np.ndarray:
    """Collapse a >=2-D tensor to (dim0, rest)."""
    return g.reshape(g.shape[0], -1)


@register_compressor
class PowerSGD(Compressor):
    """Parameters
    ----------
    num_workers: world size.
    rank: compression rank (the paper uses 2 to match SGD accuracy, 4 for
        Pufferfish warm-up).
    error_feedback: accumulate the compression residual per worker and add
        it back the next step (on by default, as in the paper).
    seed: seeds the synchronized-random Q initialization.  Instances built
        with equal seeds produce identical encodings regardless of how
        many other compressors (or RNG consumers) exist in the process.
    """

    allreduce_compatible = True
    name = "powersgd"
    # Exact on matrices of rank ≤ ``rank`` once Q spans the column space —
    # a single power iteration from random init already does for such
    # inputs (up to fp32 rounding).
    agg_contract = "low_rank"
    agg_tolerance = 1e-4

    def __init__(
        self,
        num_workers: int,
        rank: int = 2,
        error_feedback: bool = True,
        seed: int = 0,
    ):
        super().__init__(num_workers)
        self.rank = rank
        self.error_feedback = error_feedback
        self.seed = int(seed)
        # Per-layer warm-start Q (shared across workers, as in the paper's
        # synchronized-random-init scheme) and per-worker error memory,
        # both keyed by *global* layer index.
        self._qs: dict[int, np.ndarray] = {}
        self._residuals = ResidualStore()

    def _q_for(self, layer: int, m_cols: int) -> np.ndarray:
        q = self._qs.get(layer)
        if q is None or q.shape[0] != m_cols:
            rng = np.random.default_rng([self.seed, layer, m_cols])
            q = rng.standard_normal((m_cols, self.rank)).astype(np.float32)
            self._qs[layer] = q
        return q

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        """The payload borrows ``grads``' rank-1 tensors, so ``encode`` never
        writes to its input and the caller must not either until the round
        is decoded.  With error feedback a matrix is the worker's resident
        error-feedback buffer from its first round on, folded in place (the
        gradient is copied in, never kept): one ``encode`` per
        ``(worker, layer)`` per round, and the payload is dead once the
        worker encodes that layer again."""
        ps: dict[int, np.ndarray] = {}
        matrices: dict[int, np.ndarray] = {}
        raw: dict[int, np.ndarray] = {}
        shapes = [g.shape for g in grads]
        nbytes = 0
        for i, g in enumerate(grads):
            layer = layer_offset + i
            if g.ndim < 2:
                raw[i] = g
                nbytes += g.size * FLOAT32_BYTES
                continue
            m = _as_matrix(g).astype(np.float32, copy=False)
            if self.error_feedback:
                m = self._residuals.fold((worker, layer), m)
            q = self._q_for(layer, m.shape[1])
            rank = min(self.rank, *m.shape)
            p = m @ q[:, :rank]  # (n, r)
            ps[i] = p
            matrices[i] = m
            # Both power-iteration rounds hit the wire: P then Q.
            nbytes += (p.size + m.shape[1] * rank) * FLOAT32_BYTES
        return EncodeResult(
            payload=(ps, matrices, raw, worker, shapes, layer_offset), nbytes=nbytes
        )

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        """The averaged gradient.  With error feedback a matrix's entry is
        the round's ``m̂`` itself, which the residual store keeps: it comes
        read-only and is never a copy.  Decode stays pure — a second decode
        of the same round settles a fresh, equal ``m̂``."""
        n_workers = len(results)
        first_ps, first_ms, first_raw, _, shapes, layer_offset = results[0].payload
        out: list[np.ndarray | None] = [None] * len(shapes)

        # Rank-1 tensors: plain averaging.
        for i in first_raw:
            acc = np.zeros_like(first_raw[i], dtype=np.float64)
            for res in results:
                acc += res.payload[2][i]
            out[i] = (acc / n_workers).astype(np.float32)

        # Matrices: allreduce P -> orthogonalize -> Q = M^T P (allreduced)
        # -> M_hat = P Q^T, which every worker of the round keeps (by
        # reference) as its pending residual.  With error feedback the caller
        # gets that same array, read-only, so a write to it fails instead of
        # corrupting the residual.
        for i in first_ps:
            layer = layer_offset + i
            p_mean = np.mean([res.payload[0][i] for res in results], axis=0)
            p_hat = _orthogonalize(p_mean)
            q_acc = np.zeros((first_ms[i].shape[1], p_hat.shape[1]), dtype=np.float64)
            for res in results:
                q_acc += res.payload[1][i].T @ p_hat
            q_new = (q_acc / n_workers).astype(np.float32)
            # Warm-start next round's Q.
            full_q = self._qs.get(layer)
            if full_q is not None and full_q.shape == q_new.shape:
                self._qs[layer] = q_new
            m_hat = p_hat @ q_new.T
            if self.error_feedback:
                for res in results:
                    self._residuals.settle((res.payload[3], layer), m_hat)
                m_hat.flags.writeable = False
            out[i] = m_hat.reshape(shapes[i])
        return out

    def error_norm(self, worker: int) -> float:
        return self._residuals.norm(worker)

    def min_payload_nbytes(self, result: EncodeResult) -> int:
        # Wire-essential data is P per matrix plus the Q round (m·r fp32)
        # plus raw rank-1 tensors; the full matrices riding in the payload
        # are decode-side state for error feedback, never serialized.
        ps, matrices, raw, _, _, _ = result.payload
        total = sum(r.nbytes for r in raw.values())
        for i, p in ps.items():
            total += p.nbytes + matrices[i].shape[1] * p.shape[1] * FLOAT32_BYTES
        return total
