"""Hybrid-network construction: the `K` index and layer replacement.

Section 3: factorizing *every* layer hurts accuracy, so Pufferfish keeps
the first ``K-1`` factorizable layers (plus the very last FC classifier)
full-rank and factorizes the rest.  This module walks a model, enumerates
its factorizable leaves in definition order, and replaces those at index
``>= K`` with SVD-warm-started low-rank counterparts.

The conversion copies everything else verbatim — biases, BatchNorm scale /
shift and *running statistics*, embeddings — exactly as prescribed by the
"vanilla warm-up training" procedure of Algorithm 1.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.rnn import LSTMLayer
from .factorize import (
    default_rank,
    factorize_conv2d,
    factorize_linear,
    factorize_lstm_layer,
)
from .linalg import naming

__all__ = [
    "FactorizationConfig",
    "FactorizationReport",
    "factorizable_leaves",
    "eligible_paths",
    "build_hybrid",
]

_FACTORIZABLE = (Conv2d, Linear, LSTMLayer)


@dataclass
class FactorizationConfig:
    """How to factorize a model.

    Attributes
    ----------
    rank_ratio:
        Global rank ratio (the paper uses 0.25 everywhere).
    first_lowrank_index:
        The hybrid index ``K``: factorizable leaves with position < K stay
        full-rank.  ``K=0`` factorizes everything allowed by the other
        rules; a large ``K`` leaves the model untouched.
    skip_first_conv:
        Never factorize the first convolution (always true in the paper).
    skip_last_fc:
        Never factorize the final FC layer — its rank equals the number of
        classes, so shrinking it adds linear dependencies (Section 3).
    full_rank_prefixes:
        Module-path prefixes forced to stay full-rank (e.g. the first
        encoder/decoder blocks of the Transformer, or embedding-adjacent
        projections).
    rank_overrides:
        Exact rank per module path, overriding ``rank_ratio``.
    """

    rank_ratio: float = 0.25
    first_lowrank_index: int = 0
    skip_first_conv: bool = True
    skip_last_fc: bool = True
    full_rank_prefixes: tuple[str, ...] = ()
    rank_overrides: dict = field(default_factory=dict)


@dataclass
class FactorizationReport:
    """What a conversion did: per-layer decisions plus aggregate stats."""

    replaced: list[tuple[str, int]] = field(default_factory=list)  # (path, rank)
    kept: list[str] = field(default_factory=list)
    params_before: int = 0
    params_after: int = 0
    svd_seconds: float = 0.0

    @property
    def compression(self) -> float:
        """Whole-model size ratio (paper's "X× smaller")."""
        return self.params_before / max(self.params_after, 1)


def factorizable_leaves(model: Module) -> list[tuple[str, Module]]:
    """All (path, layer) pairs eligible for factorization, in definition
    order.  Conv/Linear layers nested inside another factorizable leaf are
    not double-counted (a LowRank layer's internals are never revisited)."""
    out = []
    for path, mod in model.named_modules():
        if isinstance(mod, _FACTORIZABLE):
            out.append((path, mod))
    return out


def _max_rank(layer: Module) -> int:
    if isinstance(layer, Conv2d):
        return min(layer.in_channels * layer.kernel_size**2, layer.out_channels)
    if isinstance(layer, Linear):
        return min(layer.in_features, layer.out_features)
    if isinstance(layer, LSTMLayer):
        return min(layer.input_size, layer.hidden_size)
    raise TypeError(f"not factorizable: {type(layer).__name__}")


def _factorize(layer: Module, rank: int) -> Module:
    if isinstance(layer, Conv2d):
        return factorize_conv2d(layer, rank)
    if isinstance(layer, Linear):
        return factorize_linear(layer, rank)
    if isinstance(layer, LSTMLayer):
        return factorize_lstm_layer(layer, rank)
    raise TypeError(f"not factorizable: {type(layer).__name__}")


def eligible_paths(model: Module, config: FactorizationConfig) -> list[str]:
    """Leaf paths that ``build_hybrid`` would factorize under ``config``.

    The single source of truth for the keep/replace decision — rank
    schedulers (``repro.lifecycle``) use it to know which measured spectra
    can actually drive a re-factorization.
    """
    leaves = factorizable_leaves(model)
    convs = [p for p, m in leaves if isinstance(m, Conv2d)]
    fcs = [p for p, m in leaves if isinstance(m, Linear)]
    first_conv = convs[0] if convs else None
    last_fc = fcs[-1] if fcs else None
    out = []
    for idx, (path, _layer) in enumerate(leaves):
        keep = (
            idx < config.first_lowrank_index
            or (config.skip_first_conv and path == first_conv)
            or (config.skip_last_fc and path == last_fc)
            or any(path.startswith(pref) for pref in config.full_rank_prefixes)
        )
        if not keep:
            out.append(path)
    return out


def build_hybrid(
    model: Module, config: FactorizationConfig
) -> tuple[Module, FactorizationReport]:
    """Return a hybrid copy of ``model`` plus a report of what changed.

    The input model is untouched; the returned model shares no arrays with
    it.  Low-rank layers are initialized from the truncated SVD of the
    (possibly partially trained) input weights, so calling this after the
    warm-up epochs implements the paper's "vanilla warm-up training".  A
    weight that is not finite raises ``np.linalg.LinAlgError`` naming its
    layer, before LAPACK sees it.
    """
    report = FactorizationReport(params_before=model.num_parameters())
    hybrid = copy.deepcopy(model)

    leaves = factorizable_leaves(hybrid)
    factorize = set(eligible_paths(hybrid, config))

    t0 = time.perf_counter()
    for path, layer in leaves:
        if path not in factorize:
            report.kept.append(path)
            continue
        rank = config.rank_overrides.get(
            path, default_rank(_max_rank(layer), config.rank_ratio)
        )
        with naming(path):
            hybrid.set_submodule(path, _factorize(layer, rank))
        report.replaced.append((path, rank))
    report.svd_seconds = time.perf_counter() - t0

    report.params_after = hybrid.num_parameters()
    return hybrid, report
