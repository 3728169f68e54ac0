"""NumPy-backed reverse-mode autodiff engine.

The substrate for the Pufferfish reproduction: a :class:`Tensor` with a
dynamic autograd graph, convolution/pooling kernels via im2col, and fused
functional primitives (softmax, cross-entropy, embedding, dropout).
"""

from . import backend
from .tensor import Tensor, graph_nodes_created, no_grad
from .conv_ops import conv2d, max_pool2d, avg_pool2d, global_avg_pool2d, im2col, col2im
from .functional import (
    softmax,
    log_softmax,
    cross_entropy,
    nll_loss,
    embedding,
    dropout,
    one_hot,
    bias_relu,
    linear,
)
from .grad_check import check_gradients
from .profiler import count_macs

__all__ = [
    "Tensor",
    "backend",
    "no_grad",
    "graph_nodes_created",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "embedding",
    "dropout",
    "one_hot",
    "bias_relu",
    "linear",
    "check_gradients",
    "count_macs",
]
