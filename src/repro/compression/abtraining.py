"""AB-Training (Coquelin et al. 2024): alternating low-rank factor
synchronization with periodic full resync.

AB-Training keeps a shared low-rank basis ``M ≈ U V^T`` per matrix layer
and alternates which side of the factorization is synchronized: on
*A-steps* workers exchange the gradient projected onto the shared right
basis (``M V``, an ``n×r`` message), on *B-steps* the projection onto the
shared left basis (``U^T M``, ``r×m``).  Every ``resync_every`` steps the
full gradient is exchanged and the bases are refreshed from the SVD of
the aggregated gradient — this bounds both the basis drift and the error
feedback (the residual is flushed with the full-rank exchange).

Adapted here as a gradient compressor for the bake-off: projections are
linear in the local gradient, so payloads are sum-compatible and ride the
ring allreduce; the basis refresh happens decode-side from data every
worker already holds, costing no extra wire bytes.  The step schedule
advances only in :meth:`advance_step`, so per-bucket encode/decode within
one iteration sees a frozen schedule and bucket tiling commutes with
whole-gradient encoding.

Schedule (step counter ``t``): ``t % resync_every == 0`` → full resync;
otherwise A-steps and B-steps alternate.  Step 0 is a resync, which also
initializes the bases from real gradient spectra.
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

__all__ = ["ABTraining"]


def _as_matrix(g: np.ndarray) -> np.ndarray:
    return g.reshape(g.shape[0], -1)


@register_compressor
class ABTraining(Compressor):
    """Parameters
    ----------
    num_workers: world size.
    rank: width of the shared factor bases.
    resync_every: steps between full-gradient exchanges (basis refresh and
        error-feedback flush).  Must be >= 2 so factor steps exist.
    error_feedback: accumulate each worker's projection residual and add
        it back the next step.
    """

    allreduce_compatible = True
    name = "abtrain"
    # Exact on rank ≤ ``rank`` matrices once the bases are synchronized
    # (resync initializes them from the gradient's own SVD).
    agg_contract = "low_rank"
    agg_tolerance = 1e-4

    def __init__(
        self,
        num_workers: int,
        rank: int = 4,
        resync_every: int = 10,
        error_feedback: bool = True,
    ):
        super().__init__(num_workers)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if resync_every < 2:
            raise ValueError("resync_every must be >= 2")
        self.rank = rank
        self.resync_every = int(resync_every)
        self.error_feedback = error_feedback
        self._step = 0
        # Shared per-(global layer) bases, refreshed at resync steps.
        self._us: dict[int, np.ndarray] = {}
        self._vs: dict[int, np.ndarray] = {}
        # Per-(worker, global layer) error feedback.
        self._residuals = ResidualStore()

    # ------------------------------------------------------------------

    def _mode(self) -> str:
        """Wire mode for the current step: resync | a | b."""
        phase = self._step % self.resync_every
        if phase == 0:
            return "resync"
        return "a" if phase % 2 == 1 else "b"

    def advance_step(self) -> None:
        self._step += 1

    # ------------------------------------------------------------------

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        mode = self._mode()
        entries: list[tuple] = []
        nbytes = 0
        for i, g in enumerate(grads):
            layer = layer_offset + i
            if g.ndim < 2:
                entries.append(("raw", g.copy()))
                nbytes += g.size * FLOAT32_BYTES
                continue
            m = _as_matrix(g).astype(np.float32, copy=False)
            if self.error_feedback:
                m = self._residuals.fold((worker, layer), m)
            u, v = self._us.get(layer), self._vs.get(layer)
            if mode == "resync" or u is None or v is None:
                # Full-rank exchange: flushes error feedback, and decode
                # refreshes the bases from the aggregated gradient.
                entries.append(("full", m, g.shape, worker))
                nbytes += m.size * FLOAT32_BYTES
                if self.error_feedback:
                    self._residuals.settle((worker, layer), m)
            elif mode == "a":
                p = m @ v  # (n, r)
                entries.append(("a", p, m, g.shape, worker))
                nbytes += p.size * FLOAT32_BYTES
            else:
                p = u.T @ m  # (r, m)
                entries.append(("b", p, m, g.shape, worker))
                nbytes += p.size * FLOAT32_BYTES
        return EncodeResult(payload=(entries, layer_offset), nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        n_workers = len(results)
        entries0, layer_offset = results[0].payload
        out: list[np.ndarray] = []
        for i, entry in enumerate(entries0):
            layer = layer_offset + i
            kind = entry[0]
            if kind == "raw":
                acc = np.zeros_like(entry[1], dtype=np.float64)
                for res in results:
                    acc += res.payload[0][i][1]
                out.append((acc / n_workers).astype(np.float32))
                continue
            if kind == "full":
                shape = entry[2]
                acc = np.zeros_like(entry[1], dtype=np.float64)
                for res in results:
                    acc += res.payload[0][i][1]
                mean = (acc / n_workers).astype(np.float32)
                self._refresh_basis(layer, mean)
                out.append(mean.reshape(shape))
                continue
            # Factor steps: average the (linear) projections, lift back
            # through the shared basis, update each worker's residual
            # against its *own* projection.
            shape = entry[3]
            p_mean = np.mean(
                [res.payload[0][i][1] for res in results], axis=0
            ).astype(np.float32)
            if kind == "a":
                v = self._vs[layer]
                m_hat = p_mean @ v.T
                lift = lambda p: p @ v.T
            else:
                u = self._us[layer]
                m_hat = u @ p_mean
                lift = lambda p: u @ p
            if self.error_feedback:
                for res in results:
                    e = res.payload[0][i]
                    self._residuals.settle((e[4], layer), e[2], lift(e[1]))
            out.append(m_hat.reshape(shape))
        return out

    def _refresh_basis(self, layer: int, mean: np.ndarray) -> None:
        u, _, vt = np.linalg.svd(mean.astype(np.float64), full_matrices=False)
        r = min(self.rank, u.shape[1])
        self._us[layer] = u[:, :r].astype(np.float32)
        self._vs[layer] = vt[:r].T.astype(np.float32)

    # ------------------------------------------------------------------

    def error_norm(self, worker: int) -> float:
        return self._residuals.norm(worker)

    def min_payload_nbytes(self, result: EncodeResult) -> int:
        # Wire data per entry: the raw tensor, the full matrix, or the
        # projection; the local matrix carried on factor steps is
        # decode-side error-feedback state, never serialized.
        entries, _ = result.payload
        total = 0
        for entry in entries:
            total += entry[1].nbytes
        return total
