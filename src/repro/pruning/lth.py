"""Lottery Ticket Hypothesis iterative magnitude pruning (Frankle & Carbin
2018) — the Fig. 5 baseline.

The iterative algorithm the paper times against Pufferfish:

1. Save the random initialization ``θ₀``.
2. Train the (masked) network to convergence.
3. Globally prune the ``p`` fraction of smallest-magnitude *remaining*
   weights.
4. Rewind the surviving weights to their values in ``θ₀`` and repeat.

Each round costs a full training run, which is why LTH is ~(rounds)×
more expensive than Pufferfish for the same final sparsity — the paper
measures 5.67× on VGG-19.

Only weight matrices/kernels of Conv2d/Linear layers are pruned (biases
and norms stay dense), matching open_lth's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.module import Module

__all__ = [
    "prunable_weights",
    "global_magnitude_mask",
    "apply_masks",
    "sparsity",
    "LTHRunner",
    "LTHRound",
]


def prunable_weights(model: Module) -> list[tuple[str, np.ndarray]]:
    """(path, weight array) for every Conv2d/Linear weight."""
    out = []
    for path, mod in model.named_modules():
        if isinstance(mod, (Conv2d, Linear)):
            out.append((f"{path}.weight" if path else "weight", mod.weight.data))
    return out


def global_magnitude_mask(
    model: Module,
    prune_fraction: float,
    current_masks: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Prune the smallest ``prune_fraction`` of *currently unmasked* weights,
    ranked globally across all prunable tensors."""
    weights = prunable_weights(model)
    masks = current_masks or {name: np.ones_like(w, dtype=bool) for name, w in weights}
    alive_vals = np.concatenate(
        [np.abs(w[masks[name]]).reshape(-1) for name, w in weights]
    )
    if alive_vals.size == 0:
        return masks
    k = int(prune_fraction * alive_vals.size)
    if k == 0:
        return {name: m.copy() for name, m in masks.items()}
    threshold = np.partition(alive_vals, k)[k]
    new_masks = {}
    for name, w in weights:
        new_masks[name] = masks[name] & (np.abs(w) >= threshold)
    return new_masks


def apply_masks(model: Module, masks: dict[str, np.ndarray]) -> None:
    """Zero out masked weights (and their pending gradients) in place."""
    params = dict(model.named_parameters())
    for name, mask in masks.items():
        p = params[name]
        p.data *= mask
        if p.grad is not None:
            p.grad *= mask


def sparsity(masks: dict[str, np.ndarray]) -> float:
    """Fraction of pruned (zero) weights across all masked tensors."""
    total = sum(m.size for m in masks.values())
    alive = sum(int(m.sum()) for m in masks.values())
    return 1.0 - alive / max(total, 1)


@dataclass
class LTHRound:
    """Outcome of one iterative-pruning round."""

    round_index: int
    sparsity: float
    remaining_params: int
    val_metric: float
    seconds: float
    cumulative_seconds: float


class LTHRunner:
    """Drives train → prune → rewind for a fixed number of rounds.

    Parameters
    ----------
    model_factory: builds a fresh model; called once (θ₀ is its init).
    train_fn: ``(model, post_step) -> val_metric`` — trains the model in
        place (applying ``post_step`` after each optimizer step so pruned
        weights stay zero) and returns the final validation metric.
    prune_fraction: per-round fraction of remaining weights to prune
        (open_lth default 0.2).
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        train_fn: Callable[[Module, Callable], float],
        prune_fraction: float = 0.2,
    ):
        self.model_factory = model_factory
        self.train_fn = train_fn
        self.prune_fraction = prune_fraction
        self.history: list[LTHRound] = []

    def run(self, rounds: int) -> list[LTHRound]:
        import time

        model = self.model_factory()
        theta0 = model.state_dict()
        masks = {name: np.ones_like(w, dtype=bool) for name, w in prunable_weights(model)}
        cumulative = 0.0

        for rnd in range(rounds):
            apply_masks(model, masks)
            t0 = time.perf_counter()
            val_metric = self.train_fn(model, lambda m: apply_masks(m, masks))
            elapsed = time.perf_counter() - t0
            cumulative += elapsed

            masks = global_magnitude_mask(model, self.prune_fraction, masks)
            remaining = sum(int(m.sum()) for m in masks.values())
            self.history.append(
                LTHRound(
                    round_index=rnd,
                    sparsity=sparsity(masks),
                    remaining_params=remaining,
                    val_metric=val_metric,
                    seconds=elapsed,
                    cumulative_seconds=cumulative,
                )
            )
            # Rewind surviving weights to their initial values.
            model.load_state_dict(theta0)
            apply_masks(model, masks)
        self.final_model = model
        self.final_masks = masks
        return self.history
