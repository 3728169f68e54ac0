"""Variance-based gradient gating (Tsuzuku et al. 2018).

Tsuzuku's observation: coordinates whose mini-batch gradient is dominated
by sampling noise — high variance relative to the mean — carry little
signal, and delaying them (accumulating locally until they become
unambiguous) saves most of the wire traffic without hurting convergence.

This implementation gates per *layer*: layer ``L`` is sent densely when
its inter-worker relative variance (estimated from the most recently
*committed* aggregation statistics, i.e. through step ``t−1``) is at most
``threshold``; otherwise the layer is deferred and its gradient
accumulates in per-worker residual memory.  Because the gate is a pure
function of shared state every worker holds, all workers agree on it with
no extra negotiation round, and the dense payloads of open layers are
sum-compatible — the scheme rides the ring allreduce.

Two bounds keep the protocol honest and the error feedback from
exploding:

* a layer deferred for ``max_defer`` consecutive steps is force-sent on
  the next one, so residual norms are bounded by ``max_defer`` gradient
  norms;
* statistics commit only in :meth:`advance_step` — per-bucket decode
  calls within one iteration record *pending* statistics and never move
  the gate mid-step, so bucket tiling commutes with whole-gradient
  encoding.

Wire accounting: one byte of gate metadata per layer (the open/closed
bit, byte-aligned) plus 4 bytes per coordinate of every open layer.
"""

from __future__ import annotations

import numpy as np

from .base import (
    FLOAT32_BYTES,
    Compressor,
    EncodeResult,
    register_compressor,
)

__all__ = ["VarianceGated"]

GATE_HEADER_BYTES = 1


@register_compressor
class VarianceGated(Compressor):
    """Parameters
    ----------
    num_workers: world size.
    threshold: maximum relative inter-worker variance
        (``E_w‖g_w − ḡ‖² / ‖ḡ‖²``) for a layer to stay open; ``inf``
        sends everything (the "dense" contract regime).
    max_defer: force-send a layer after this many consecutive deferrals.
    """

    allreduce_compatible = True
    name = "vargate"
    # With threshold=inf every gate stays open and decode is the exact
    # mean of (gradient + residual) — the regime the property suite pins.
    agg_contract = "dense"
    agg_tolerance = 1e-6

    def __init__(
        self,
        num_workers: int,
        threshold: float = 4.0,
        max_defer: int = 4,
    ):
        super().__init__(num_workers)
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if max_defer < 1:
            raise ValueError("max_defer must be >= 1")
        self.threshold = float(threshold)
        self.max_defer = int(max_defer)
        self._step = 0
        # Committed relative-variance estimate per global layer (through
        # step t−1) and pending statistics gathered during step t.
        self._variance: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        # Consecutive deferrals per layer, the layers deferred during step
        # t, and per-(worker, layer) residuals.
        self._deferred: dict[int, int] = {}
        self._deferred_now: set[int] = set()
        self._errors: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------

    def gate_open(self, layer: int) -> bool:
        """Send layer ``layer`` this step?  Pure function of committed
        state, identical on every worker."""
        if self._deferred.get(layer, 0) >= self.max_defer:
            return True
        ratio = self._variance.get(layer)
        if ratio is None:  # no statistics yet: send
            return True
        return ratio <= self.threshold

    def advance_step(self) -> None:
        # Commit this step's statistics and move the deferral counters.
        for layer in self._deferred_now:
            self._deferred[layer] = self._deferred.get(layer, 0) + 1
        self._deferred_now.clear()
        for layer, ratio in self._pending.items():
            self._variance[layer] = ratio
            self._deferred[layer] = 0
        self._pending.clear()
        for layer in list(self._variance):
            if layer not in self._deferred:
                self._deferred[layer] = 0
        # Layers known to the gate but absent from this step's pending
        # stats were deferred (or simply not part of this model — then the
        # counter is harmless).
        self._step += 1

    # ------------------------------------------------------------------

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        entries: list[tuple] = []
        nbytes = 0
        for i, g in enumerate(grads):
            layer = layer_offset + i
            nbytes += GATE_HEADER_BYTES
            residual = self._errors.get((worker, layer))
            if self.gate_open(layer):
                dense = g.astype(np.float32)
                if residual is not None:
                    dense = dense + residual
                    self._errors[(worker, layer)] = np.zeros_like(residual)
                entries.append(("dense", dense, worker))
                nbytes += dense.size * FLOAT32_BYTES
            else:
                acc = g.astype(np.float32) if residual is None else residual + g
                self._errors[(worker, layer)] = acc
                entries.append(("deferred", g.shape, worker))
        return EncodeResult(payload=(entries, layer_offset), nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        n_workers = len(results)
        entries0, layer_offset = results[0].payload
        out: list[np.ndarray] = []
        for i, entry in enumerate(entries0):
            layer = layer_offset + i
            if entry[0] == "deferred":
                # Deferral counters move in advance_step; decode only
                # records the deferral (idempotently) and reports the
                # (zero) aggregate for this layer.
                self._deferred_now.add(layer)
                self._pending.pop(layer, None)
                out.append(np.zeros(entry[1], dtype=np.float32))
                continue
            stacked = [res.payload[0][i][1].astype(np.float64) for res in results]
            mean = sum(stacked) / n_workers
            # Relative inter-worker variance feeds the next step's gate.
            mean_sq = float(np.sum(mean**2))
            var = sum(float(np.sum((s - mean) ** 2)) for s in stacked) / n_workers
            self._pending[layer] = var / (mean_sq + 1e-12)
            out.append(mean.astype(np.float32))
        return out

    # ------------------------------------------------------------------

    def error_norm(self, worker: int) -> float:
        return float(
            np.sqrt(
                sum(
                    float(np.sum(e.astype(np.float64) ** 2))
                    for (w, _), e in self._errors.items()
                    if w == worker
                )
            )
        )

    def min_payload_nbytes(self, result: EncodeResult) -> int:
        entries, _ = result.payload
        return sum(e[1].nbytes for e in entries if e[0] == "dense")
