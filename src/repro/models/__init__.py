"""Model zoo: the paper's architectures with hybrid-factorization configs."""

from .mlp import MLP, mlp_hybrid_config
from .vgg import (
    VGG,
    vgg11,
    vgg19,
    vgg19_lth,
    vgg11_hybrid_config,
    vgg19_hybrid_config,
)
from .resnet import (
    BasicBlock,
    Bottleneck,
    ResNet,
    resnet18,
    resnet50,
    wide_resnet50_2,
    resnet18_hybrid_config,
    resnet50_hybrid_config,
)
from .lstm_lm import LSTMLanguageModel, lstm_lm_hybrid_config
from .transformer import Seq2SeqTransformer, transformer_hybrid_config

__all__ = [
    "MLP",
    "mlp_hybrid_config",
    "VGG",
    "vgg11",
    "vgg19",
    "vgg19_lth",
    "vgg11_hybrid_config",
    "vgg19_hybrid_config",
    "BasicBlock",
    "Bottleneck",
    "ResNet",
    "resnet18",
    "resnet50",
    "wide_resnet50_2",
    "resnet18_hybrid_config",
    "resnet50_hybrid_config",
    "LSTMLanguageModel",
    "lstm_lm_hybrid_config",
    "Seq2SeqTransformer",
    "transformer_hybrid_config",
]
