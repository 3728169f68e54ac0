"""Neural-network layers built on the :mod:`repro.tensor` autograd engine."""

from .module import Module, Parameter
from .arena import ParameterArena
from .linear import Linear
from .conv import Conv2d
from .norm import BatchNorm2d, BatchNorm1d, LayerNorm
from .activation import ReLU, Tanh, Sigmoid, GELU
from .pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten
from .dropout import Dropout
from .container import Sequential, ModuleList
from .embedding import Embedding
from .rnn import LSTM, LSTMLayer
from .attention import (
    MultiHeadAttention,
    PositionwiseFFN,
    PositionalEncoding,
    TransformerEncoderLayer,
    TransformerDecoderLayer,
)
from .loss import CrossEntropyLoss
from .amp import GradScaler, autocast_round_trip, cast_gradients_fp16
from . import init

__all__ = [
    "Module",
    "Parameter",
    "ParameterArena",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "BatchNorm1d",
    "LayerNorm",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "GELU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Sequential",
    "ModuleList",
    "Embedding",
    "LSTM",
    "LSTMLayer",
    "MultiHeadAttention",
    "PositionwiseFFN",
    "PositionalEncoding",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "CrossEntropyLoss",
    "GradScaler",
    "autocast_round_trip",
    "cast_gradients_fp16",
    "init",
]
