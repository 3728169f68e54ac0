"""Encoder-decoder Transformer for translation (the WMT16 task).

Follows the paper's 6-layer, 8-head setup (appendix Tables 16/17) with
shared source/target embeddings and the output projection tied to the
target embedding.  ``hybrid_config`` keeps the first encoder and first
decoder blocks full-rank and factorizes every projection (wq/wk/wv/wo and
both FFN matrices) in the remaining blocks at rank ratio 1/4 — reproducing
the appendix shapes ``U ∈ R^{512×128}``, ``V^T ∈ R^{128×512}``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.hybrid import FactorizationConfig
from ..nn import (
    Embedding,
    Module,
    Parameter,
    PositionalEncoding,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)
from ..nn.container import ModuleList
from ..tensor import Tensor, functional

__all__ = ["Seq2SeqTransformer", "transformer_hybrid_config", "causal_mask", "padding_mask"]


def causal_mask(t: int) -> np.ndarray:
    """Additive upper-triangular mask blocking future positions."""
    return np.triu(np.full((t, t), -1e9, dtype=np.float32), k=1)


def padding_mask(tokens: np.ndarray, pad_idx: int) -> np.ndarray:
    """Additive mask of shape (B, 1, 1, T_k) blocking pad keys."""
    blocked = (tokens == pad_idx).astype(np.float32) * -1e9
    return blocked[:, None, None, :]


class Seq2SeqTransformer(Module):
    """Vaswani-style encoder-decoder for token sequences ``(B, T)``.

    The source and target share one embedding (the synthetic translation
    task shares a vocabulary, as the paper's shared-embedding setup does),
    and the generator is tied to the embedding weight.  Token 0 is padding,
    as in :class:`~repro.data.TranslationDataset`.
    """

    pad_idx = 0

    def __init__(
        self,
        vocab_size: int,
        d_model: int = 512,
        n_heads: int = 8,
        num_layers: int = 6,
        d_ff: int | None = None,
        dropout: float = 0.1,
        max_len: int = 256,
    ):
        super().__init__()
        d_ff = d_ff or 4 * d_model
        self.d_model = d_model
        self.vocab_size = vocab_size
        self.embedding = Embedding(vocab_size, d_model, padding_idx=self.pad_idx)
        self.pos_enc = PositionalEncoding(d_model, max_len=max_len, dropout=dropout)
        self.encoder_layers = ModuleList(
            TransformerEncoderLayer(d_model, n_heads, d_ff, dropout)
            for _ in range(num_layers)
        )
        self.decoder_layers = ModuleList(
            TransformerDecoderLayer(d_model, n_heads, d_ff, dropout)
            for _ in range(num_layers)
        )
        self.generator_bias = Parameter(np.zeros(vocab_size, dtype=np.float32))
        self._emb_scale = math.sqrt(d_model)

    # ------------------------------------------------------------------

    def encode(self, src: np.ndarray) -> tuple[Tensor, np.ndarray]:
        src_mask = padding_mask(src, self.pad_idx)
        x = self.pos_enc(self.embedding(src) * self._emb_scale)
        for layer in self.encoder_layers:
            x = layer(x, src_mask)
        return x, src_mask

    def decode(self, tgt: np.ndarray, memory: Tensor, src_mask: np.ndarray) -> Tensor:
        t = tgt.shape[1]
        self_mask = causal_mask(t)[None, None] + padding_mask(tgt, self.pad_idx)
        x = self.pos_enc(self.embedding(tgt) * self._emb_scale)
        for layer in self.decoder_layers:
            x = layer(x, memory, self_mask, src_mask)
        return x

    def forward(self, src: np.ndarray, tgt: np.ndarray) -> Tensor:
        """Teacher-forced logits ``(B, T_tgt, vocab)``."""
        memory, src_mask = self.encode(src)
        out = self.decode(tgt, memory, src_mask)
        # Generator tied to the embedding: one fused node over (B·T, D) rows.
        return functional.linear(out, self.embedding.weight, self.generator_bias)

    def greedy_decode(self, src: np.ndarray, bos: int, eos: int, max_len: int = 32) -> np.ndarray:
        """Greedy autoregressive decoding (used for BLEU evaluation)."""
        from ..tensor import no_grad

        self.eval()
        with no_grad():
            memory, src_mask = self.encode(src)
            b = src.shape[0]
            ys = np.full((b, 1), bos, dtype=np.int64)
            finished = np.zeros(b, dtype=bool)
            for _ in range(max_len - 1):
                out = self.decode(ys, memory, src_mask)
                last = out.data[:, -1]  # (B, D)
                logits = last @ self.embedding.weight.data.T + self.generator_bias.data
                nxt = logits.argmax(axis=-1)
                nxt = np.where(finished, self.pad_idx, nxt)
                ys = np.concatenate([ys, nxt[:, None]], axis=1)
                finished |= nxt == eos
                if finished.all():
                    break
        return ys


def transformer_hybrid_config(rank_ratio: float = 0.25) -> FactorizationConfig:
    """First encoder/decoder blocks full-rank, everything else factorized
    (appendix D: "the very first encoder layer and first decoder layer as
    full-rank layers")."""
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=0,
        skip_first_conv=False,
        skip_last_fc=False,
        full_rank_prefixes=("encoder_layers.0", "decoder_layers.0"),
    )
