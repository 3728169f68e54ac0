"""Gradient-compression baselines, pluggable into the distributed simulator.

Importing this package populates the compressor registry
(:func:`registered_compressors` / :func:`make_compressor`) — one source of
truth shared by the CLI, the benchmarks and the property suite.
"""

from .base import (
    Compressor,
    EncodeResult,
    NoCompression,
    NonFiniteGradientError,
    UndecodedRoundError,
    make_compressor,
    register_compressor,
    registered_compressors,
)
from .powersgd import PowerSGD
from .signum import Signum
from .qsgd import QSGD
from .topk import TopK
from .binary import StochasticBinary
from .atomo import Atomo, atomo_probabilities
from .abtraining import ABTraining
from .variance import VarianceGated

__all__ = [
    "Compressor",
    "EncodeResult",
    "NoCompression",
    "PowerSGD",
    "Signum",
    "QSGD",
    "TopK",
    "StochasticBinary",
    "Atomo",
    "ABTraining",
    "VarianceGated",
    "NonFiniteGradientError",
    "UndecodedRoundError",
    "atomo_probabilities",
    "make_compressor",
    "register_compressor",
    "registered_compressors",
]
