"""Spectral monitoring during training: seeded, digest-carrying snapshots.

The measurement half of online re-factorization.  A
:class:`SpectrumMonitor` is attached to a training run and asked to
``observe`` the model at configurable epochs; each observation records the
per-layer singular-value spectra (via :func:`repro.core.layer_spectra`) as
an immutable, counter-keyed :class:`SpectrumSnapshot` whose sha256 digest
is a pure function of the model weights — and therefore, for a seeded run,
of ``(seed, config)``.  The snapshot stream is what the rank scheduler
consumes and what `BENCH_lifecycle.json` exact-gates.

Hybrid models are materialized (``U V^T`` products reconstituted into
vanilla weights) before measuring, so spectra stay comparable across the
full-rank warm-up and the low-rank fine-tuning phases: the monitor always
reports the spectrum of the *effective* weight the layer applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.materialize import materialize_hybrid
from ..core.spectrum import energy_rank, layer_spectra
from ..nn.module import Module
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..utils import canonical_digest

__all__ = ["SpectrumSnapshot", "SpectrumMonitor"]

# Stored singular values are rounded so digests do not depend on sub-1e-6
# float noise (e.g. summation-order differences between BLAS builds).
_ROUND_DECIMALS = 6


@dataclass(frozen=True)
class SpectrumSnapshot:
    """One observation of the model's per-layer spectra.

    ``index`` is the monitor's snapshot counter — snapshots are keyed by
    (index, epoch, phase) so a run's snapshot stream is self-describing.
    """

    index: int
    epoch: int
    phase: str  # "warmup" | "lowrank"
    spectra: dict  # path -> tuple of singular values (rounded, descending)

    def energy_ranks(self, threshold: float = 0.9) -> dict[str, int]:
        """Smallest rank per layer retaining ``threshold`` spectral energy."""
        return {
            path: energy_rank(np.asarray(sv), threshold)
            for path, sv in self.spectra.items()
        }

    def digest(self) -> str:
        return canonical_digest(
            {
                "index": self.index,
                "epoch": self.epoch,
                "phase": self.phase,
                "spectra": {k: list(v) for k, v in self.spectra.items()},
            }
        )

    def as_dict(self) -> dict:
        """Digest-level summary (the full spectra stay in memory only)."""
        return {
            "index": self.index,
            "epoch": self.epoch,
            "phase": self.phase,
            "n_layers": len(self.spectra),
            "digest": self.digest(),
        }


class SpectrumMonitor:
    """Collects :class:`SpectrumSnapshot` records over a training run."""

    def __init__(self):
        self.snapshots: list[SpectrumSnapshot] = []

    def observe(self, model: Module, epoch: int, phase: str) -> SpectrumSnapshot:
        """Snapshot ``model``'s effective-weight spectra at ``epoch``."""
        with _trace.span("lifecycle.snapshot", epoch=epoch, phase=phase):
            effective = materialize_hybrid(model)
            raw = layer_spectra(effective)
        spectra = {
            path: tuple(round(float(v), _ROUND_DECIMALS) for v in sv)
            for path, sv in raw.items()
        }
        snap = SpectrumSnapshot(
            index=len(self.snapshots), epoch=epoch, phase=phase, spectra=spectra
        )
        self.snapshots.append(snap)
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("lifecycle.snapshots").inc()
            _metrics.REGISTRY.gauge("lifecycle.snapshot_layers").set(len(spectra))
        return snap

    def digest(self) -> str:
        """Digest over the whole snapshot stream."""
        return canonical_digest([s.digest() for s in self.snapshots])
