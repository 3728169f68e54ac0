"""Normalization layers: BatchNorm (1d/2d) and LayerNorm.

BatchNorm is implemented as a fused autograd node (hand-written backward)
because it sits on every conv in VGG/ResNet and the composite formulation
builds needlessly deep graphs.  Running statistics live in buffers so the
Pufferfish warm-start can carry them from the vanilla to the hybrid model,
exactly as Section 3 of the paper prescribes.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, backend
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BatchNorm1d", "LayerNorm"]


class _BatchNormBase(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.weight.no_decay = True
        self.bias.no_decay = True
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _normalize(self, x: Tensor, axes: tuple[int, ...], shape) -> Tensor:
        """Shared fused forward/backward over reduction ``axes``."""
        gamma, beta = self.weight, self.bias
        eps = self.eps
        if self.training:
            mu = x.data.mean(axis=axes, keepdims=True)
            # x.var() step for step — mean, deviations, their mean square —
            # minus its second mean pass, and the deviations are kept for x_hat.
            x_hat = x.data - mu
            var = (x_hat * x_hat).mean(axis=axes, keepdims=True)
            m = self.momentum
            # Unbiased variance for the running estimate, as in PyTorch.
            n = x.data.size / self.num_features
            unbias = var.reshape(-1) * n / max(n - 1, 1)
            self._set_buffer(
                "running_mean",
                ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(np.float32),
            )
            self._set_buffer(
                "running_var", ((1 - m) * self.running_var + m * unbias).astype(np.float32)
            )
        else:
            mu = self.running_mean.reshape(shape)
            var = self.running_var.reshape(shape)
            x_hat = x.data - mu

        inv_std = 1.0 / np.sqrt(var + eps)
        # (x - mu) * inv_std and x_hat * gamma + beta, each into its first
        # temporary: the same roundings, two allocations fewer.
        x_hat *= inv_std
        gamma_data = gamma.data
        out = x_hat * gamma_data.reshape(shape)
        out += beta.data.reshape(shape)
        training = self.training
        be = backend.active()

        def backward(g: np.ndarray, nx, ngamma, nbeta) -> None:
            ggamma, gbeta, gx = be.batch_norm_backward(
                g,
                x_hat,
                inv_std,
                gamma_data,
                axes,
                training,
                need_ggamma=ngamma.requires_grad,
                need_gbeta=nbeta.requires_grad,
                need_gx=nx.requires_grad,
            )
            if ggamma is not None:
                ngamma._accumulate(ggamma, owned=True)
            if gbeta is not None:
                nbeta._accumulate(gbeta, owned=True)
            if gx is not None:
                nx._accumulate(gx, owned=True)

        return Tensor._from_op(
            out.astype(x.dtype, copy=False), (x, gamma, beta), backward, "batch_norm"
        )


class BatchNorm2d(_BatchNormBase):
    """BatchNorm over NCHW feature maps (per-channel statistics)."""

    # Folded into the conv before it (:func:`repro.core.fold_batchnorm`):
    # that conv already applies this layer's eval affine map.
    absorbed = False

    def forward(self, x: Tensor) -> Tensor:
        if self.absorbed:
            return x
        return self._normalize(x, axes=(0, 2, 3), shape=(1, self.num_features, 1, 1))

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class BatchNorm1d(_BatchNormBase):
    """BatchNorm over (N, C) activations."""

    def forward(self, x: Tensor) -> Tensor:
        return self._normalize(x, axes=(0,), shape=(1, self.num_features))

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class LayerNorm(Module):
    """Layer normalization over the trailing dimension (Transformer-style)."""

    eps = 1e-6

    def __init__(self, normalized_shape: int):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))
        self.weight.no_decay = True
        self.bias.no_decay = True

    def forward(self, x: Tensor) -> Tensor:
        gamma, beta, eps = self.weight, self.bias, self.eps
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x.data - mu) * inv_std
        gamma_data = gamma.data
        out = x_hat * gamma_data + beta.data
        d = x.data.shape[-1]

        def backward(g: np.ndarray, nx, ngamma, nbeta) -> None:
            if ngamma.requires_grad:
                ngamma._accumulate((g * x_hat).reshape(-1, d).sum(axis=0), owned=True)
            if nbeta.requires_grad:
                nbeta._accumulate(g.reshape(-1, d).sum(axis=0), owned=True)
            if nx.requires_grad:
                dxhat = g * gamma_data
                nx._accumulate(
                    inv_std
                    / d
                    * (
                        d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - x_hat * (dxhat * x_hat).sum(axis=-1, keepdims=True)
                    ),
                    owned=True,
                )

        return Tensor._from_op(
            out.astype(x.dtype, copy=False), (x, gamma, beta), backward, "layer_norm"
        )

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape})"
