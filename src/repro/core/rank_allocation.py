"""Automatic per-layer rank allocation.

The paper uses a single global rank ratio (0.25) and flags per-layer rank
selection as future work, citing Idelbayev & Carreira-Perpinán (2020):
"Allocating the optimal rank for each layer can lead to better final model
accuracy and smaller model sizes … the search space for the rank
allocation problem is large."

This module implements two practical allocators whose result plugs straight
into the ``rank_overrides`` field of :class:`repro.core.FactorizationConfig`:

* :func:`energy_rank_allocation` — per layer, keep the smallest rank whose
  truncated spectrum retains a target fraction of spectral energy.  Layers
  whose (partially trained) weights are already effectively low-rank get
  aggressive compression; layers with flat spectra keep more.
* :func:`budget_rank_allocation` — global parameter budget: spend ranks
  greedily where a unit of rank buys the most retained energy per
  parameter, until the factorized model fits the budget.

Both operate on the warm-up-trained model, which is exactly when
Pufferfish runs its one-time SVD anyway — the spectra are free.
"""

from __future__ import annotations

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.module import Module
from .factorize import unroll_conv_weight
from .hybrid import factorizable_leaves
from .linalg import naming
from .spectrum import energy_rank, singular_values

__all__ = ["energy_rank_allocation", "budget_rank_allocation", "allocation_report"]


def _leaf_spectrum(path: str, layer) -> tuple[tuple[int, int], np.ndarray] | None:
    """Shape and singular values of the 2-D matrix whose spectrum drives the
    layer's rank choice; ``None`` for LSTM layers (the global ratio)."""
    if isinstance(layer, Conv2d):
        w = unroll_conv_weight(layer.weight.data)
    elif isinstance(layer, Linear):
        w = layer.weight.data
    else:
        return None
    with naming(path):
        return w.shape, singular_values(w)


def _lowrank_params(shape: tuple[int, int], r: int) -> int:
    m, n = shape
    return r * (m + n)


def energy_rank_allocation(
    model: Module,
    energy_threshold: float = 0.9,
    min_rank: int = 1,
    max_ratio: float = 1.0,
) -> dict[str, int]:
    """Per-layer ranks retaining ``energy_threshold`` of spectral energy.

    Returns a ``rank_overrides`` mapping for the factorizable Conv/Linear
    leaves.  ``max_ratio`` caps each rank at that fraction of the layer's
    full rank (1.0 = no cap).
    """
    overrides: dict[str, int] = {}
    for path, layer in factorizable_leaves(model):
        spectrum = _leaf_spectrum(path, layer)
        if spectrum is None:
            continue
        shape, s = spectrum
        r = energy_rank(s, energy_threshold)
        cap = max(min_rank, int(max_ratio * min(shape)))
        overrides[path] = int(np.clip(r, min_rank, cap))
    return overrides


def budget_rank_allocation(model: Module, param_budget: int) -> dict[str, int]:
    """Greedy global allocation under a total parameter budget.

    Every factorizable leaf starts at rank 1.  Each candidate
    (layer, next-rank-increment) is scored by marginal retained energy per
    added parameter; increments are granted best-first until the budget
    over the factorizable leaves is exhausted.
    """
    specs = []  # (path, shape, s, cost_per_rank)
    for path, layer in factorizable_leaves(model):
        spectrum = _leaf_spectrum(path, layer)
        if spectrum is None:
            continue
        shape, s = spectrum
        specs.append((path, shape, s, sum(shape)))

    ranks = {path: 1 for path, _, _, _ in specs}
    spent = sum(_lowrank_params(shape, 1) for _, shape, _, _ in specs)
    if spent > param_budget:
        return ranks  # budget too tight: everything at the floor

    # Greedy: repeatedly grant +1 rank to the layer with the best marginal
    # energy gain per parameter.
    import heapq

    heap = []
    for idx, (path, shape, s, cost) in enumerate(specs):
        r = ranks[path]
        if r < len(s):
            gain = float(s[r] ** 2) / cost
            heapq.heappush(heap, (-gain, idx, r))

    while heap:
        neg_gain, idx, r = heapq.heappop(heap)
        path, shape, s, cost = specs[idx]
        if ranks[path] != r:  # stale entry
            continue
        if spent + cost > param_budget:
            continue
        ranks[path] = r + 1
        spent += cost
        if r + 1 < len(s):
            gain = float(s[r + 1] ** 2) / cost
            heapq.heappush(heap, (-gain, idx, r + 1))
    return ranks


def allocation_report(
    model: Module, overrides: dict[str, int]
) -> list[tuple[str, int, int, float]]:
    """(path, full_rank, allocated_rank, retained_energy) per layer."""
    rows = []
    for path, layer in factorizable_leaves(model):
        if path not in overrides:
            continue
        shape, s = _leaf_spectrum(path, layer)
        r = overrides[path]
        energy = float((s[:r] ** 2).sum() / max((s**2).sum(), 1e-12))
        rows.append((path, int(min(shape)), r, energy))
    return rows
