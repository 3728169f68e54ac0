"""2-layer tied-weight LSTM language model (the WikiText-2 task).

Architecture from appendix Table 12: embedding → dropout → stacked LSTM
(dropout between layers) → dropout → decoder whose weight is *tied* to the
embedding (Press & Wolf 2016).  The tied embedding is never factorized —
the paper treats it as a lookup table — so Pufferfish's gains come entirely
from the LSTM gate matrices.
"""

from __future__ import annotations

import numpy as np

from ..core.hybrid import FactorizationConfig
from ..nn import LSTM, Dropout, Embedding, Module, Parameter
from ..tensor import Tensor, functional

__all__ = ["LSTMLanguageModel", "lstm_lm_hybrid_config"]


class LSTMLanguageModel(Module):
    """Next-token prediction LM.

    Weight tying requires ``hidden_size == embed_dim`` (the paper uses
    1500/1500; our scaled runs keep the equality).

    Input: integer tokens ``(T, B)``; output logits ``(T, B, vocab)``.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 1500,
        hidden_size: int | None = None,
        num_layers: int = 2,
        dropout: float = 0.65,
    ):
        super().__init__()
        hidden_size = hidden_size or embed_dim
        if hidden_size != embed_dim:
            raise ValueError("weight tying requires hidden_size == embed_dim")
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.encoder = Embedding(vocab_size, embed_dim)
        self.drop_in = Dropout(dropout)
        self.lstm = LSTM(embed_dim, hidden_size, num_layers=num_layers, dropout=dropout)
        self.drop_out = Dropout(dropout)
        # Decoder bias; decoder weight is tied to encoder.weight.
        self.decoder_bias = Parameter(np.zeros(vocab_size, dtype=np.float32))
        # Detached (h, c) per layer carried between truncated-BPTT chunks
        # by repro.core.lm_batch; not part of the state dict.
        self.carry = None

    def forward(self, tokens: np.ndarray, states=None) -> tuple[Tensor, list]:
        emb = self.drop_in(self.encoder(tokens))  # (T, B, D)
        out, states = self.lstm(emb, states)
        out = self.drop_out(out)
        # Tied decoder: one fused node over the flattened (T·B, D) rows.
        return functional.linear(out, self.encoder.weight, self.decoder_bias), states

    def detach_states(self, states):
        """Truncated BPTT: cut the graph between minibatches."""
        return [(h.detach(), c.detach()) for h, c in states]


def lstm_lm_hybrid_config(rank_ratio: float = 0.25) -> FactorizationConfig:
    """Factorize only the LSTM layers (the embedding is a lookup table and
    is left as is, per Section 4.1)."""
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=0,
        skip_first_conv=False,
        skip_last_fc=False,
    )
