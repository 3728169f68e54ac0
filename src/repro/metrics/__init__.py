"""Evaluation metrics: MACs, accuracy, perplexity, BLEU (and the seq2seq
validation built on it)."""

from .macs import (
    measure_macs,
    fc_macs,
    lowrank_fc_macs,
    conv_macs,
    lowrank_conv_macs,
    fc_params,
    lowrank_fc_params,
    conv_params,
    lowrank_conv_params,
    lstm_params,
    lowrank_lstm_params,
    attention_params,
    lowrank_attention_params,
    ffn_params,
    lowrank_ffn_params,
)
from .classification import topk_accuracy, accuracy
from .perplexity import perplexity
from .bleu import corpus_bleu, evaluate_translation

__all__ = [
    "measure_macs",
    "fc_macs",
    "lowrank_fc_macs",
    "conv_macs",
    "lowrank_conv_macs",
    "fc_params",
    "lowrank_fc_params",
    "conv_params",
    "lowrank_conv_params",
    "lstm_params",
    "lowrank_lstm_params",
    "attention_params",
    "lowrank_attention_params",
    "ffn_params",
    "lowrank_ffn_params",
    "topk_accuracy",
    "accuracy",
    "perplexity",
    "corpus_bleu",
    "evaluate_translation",
]
