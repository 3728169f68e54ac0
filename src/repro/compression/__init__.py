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
from .atomo import Atomo
from . import abtraining, variance  # noqa: F401  (register "abtrain", "vargate")

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
    "NonFiniteGradientError",
    "UndecodedRoundError",
    "make_compressor",
    "register_compressor",
    "registered_compressors",
]
