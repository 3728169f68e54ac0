"""Simple fully connected networks (Section 2.1's 2-layer FC example)."""

from __future__ import annotations

from ..core.hybrid import FactorizationConfig
from ..nn import Linear, Module, ReLU, Sequential

__all__ = ["MLP", "mlp_hybrid_config"]


class MLP(Module):
    """Plain feed-forward classifier over flat inputs."""

    def __init__(self, in_features: int, hidden: list[int], num_classes: int):
        super().__init__()
        dims = [in_features] + list(hidden)
        layers: list[Module] = []
        for a, b in zip(dims[:-1], dims[1:]):
            layers.append(Linear(a, b))
            layers.append(ReLU())
        layers.append(Linear(dims[-1], num_classes))
        self.net = Sequential(*layers)

    def forward(self, x):
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.net(x)


def mlp_hybrid_config(rank_ratio: float = 0.25) -> FactorizationConfig:
    """Factorize all hidden FC layers; the classifier head stays full-rank."""
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=0,
        skip_first_conv=False,
        skip_last_fc=True,
    )
