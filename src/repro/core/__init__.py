"""Pufferfish core: low-rank layers, SVD factorization, hybrid networks and
the Algorithm 1 training procedure."""

from .layers import LowRankLinear, LowRankConv2d, LowRankLSTMLayer
from .factorize import (
    factorize_matrix,
    unroll_conv_weight,
    factorize_linear,
    factorize_conv2d,
    factorize_lstm_layer,
)
from .hybrid import (
    FactorizationConfig,
    FactorizationReport,
    factorizable_leaves,
    eligible_paths,
    build_hybrid,
)
from .trainer import (
    EpochStats,
    Trainer,
    PufferfishTrainer,
    classification_batch,
    seq2seq_batch,
    lm_batch,
)
from .spectrum import (
    singular_values,
    energy_curve,
    energy_rank,
    effective_rank,
    stable_rank,
    layer_spectra,
)
from .rank_allocation import (
    energy_rank_allocation,
    budget_rank_allocation,
    allocation_report,
)
from .tucker import TuckerConv2d, tucker2_decompose, tucker_conv_from
from .materialize import materialize_layer, materialize_hybrid
from .fold import fold_batchnorm, folded_pairs
from ..nn.module import FoldedModelError

__all__ = [
    "LowRankLinear",
    "LowRankConv2d",
    "LowRankLSTMLayer",
    "factorize_matrix",
    "unroll_conv_weight",
    "factorize_linear",
    "factorize_conv2d",
    "factorize_lstm_layer",
    "FactorizationConfig",
    "FactorizationReport",
    "factorizable_leaves",
    "eligible_paths",
    "build_hybrid",
    "EpochStats",
    "Trainer",
    "PufferfishTrainer",
    "classification_batch",
    "seq2seq_batch",
    "lm_batch",
    "singular_values",
    "energy_curve",
    "energy_rank",
    "effective_rank",
    "stable_rank",
    "layer_spectra",
    "energy_rank_allocation",
    "budget_rank_allocation",
    "allocation_report",
    "TuckerConv2d",
    "tucker2_decompose",
    "tucker_conv_from",
    "materialize_layer",
    "materialize_hybrid",
    "fold_batchnorm",
    "folded_pairs",
    "FoldedModelError",
]
