"""Synthetic text tasks: a Markov language-model corpus (WikiText-2
stand-in) and a deterministic-mapping translation task (WMT16 stand-in).

Language modeling: tokens are drawn from an order-1 Markov chain whose
transition rows are sparse Zipf-weighted distributions.  The corpus has
genuine sequential structure, so a model's perplexity falls well below the
uniform baseline as it learns — enabling the vanilla vs low-rank vs
hybrid+warm-up orderings the paper's Tables 2/9 measure.

Translation: the target is the source passed through a fixed vocabulary
permutation and *reversed*, with BOS/EOS framing.  Reversal forces the
decoder to use attention positionally (a pure token-copy shortcut can't
solve it), which is what makes BLEU a meaningful metric here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..utils import spawn_rng

__all__ = [
    "MarkovCorpus",
    "make_lm_corpus",
    "batchify",
    "get_lm_batch",
    "lm_chunks",
    "TranslationDataset",
    "make_translation_dataset",
]


@dataclass
class MarkovCorpus:
    """Token streams for train/val/test plus the generator's vocab size."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocab_size: int


def _markov_matrix(vocab: int, branching: int, rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic transitions: each token can be followed by only
    ``branching`` successors, Zipf-weighted, giving low entropy per step."""
    probs = np.zeros((vocab, vocab))
    weights = 1.0 / np.arange(1, branching + 1)
    weights /= weights.sum()
    for tok in range(vocab):
        successors = rng.choice(vocab, size=branching, replace=False)
        probs[tok, successors] = weights
    return probs


def _sample_chain(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    vocab = probs.shape[0]
    # Inverse-CDF sampling over precomputed cumulative rows.
    cdf = probs.cumsum(axis=1)
    out = np.empty(n, dtype=np.int64)
    tok = int(rng.integers(0, vocab))
    u = rng.random(n)
    for i in range(n):
        tok = int(np.searchsorted(cdf[tok], u[i]))
        tok = min(tok, vocab - 1)
        out[i] = tok
    return out


def make_lm_corpus(
    vocab_size: int = 200,
    n_train: int = 20000,
    n_valid: int = 4000,
    n_test: int = 4000,
    branching: int = 8,
    rng: np.random.Generator | None = None,
) -> MarkovCorpus:
    """Generate a Markov LM corpus; all splits share one transition matrix."""
    rng = rng or spawn_rng()
    probs = _markov_matrix(vocab_size, branching, rng)
    return MarkovCorpus(
        train=_sample_chain(probs, n_train, rng),
        valid=_sample_chain(probs, n_valid, rng),
        test=_sample_chain(probs, n_test, rng),
        vocab_size=vocab_size,
    )


def batchify(stream: np.ndarray, batch_size: int) -> np.ndarray:
    """Fold a token stream into ``(T, B)`` columns (PyTorch LM example)."""
    n = (len(stream) // batch_size) * batch_size
    return stream[:n].reshape(batch_size, -1).T.copy()


def get_lm_batch(data: np.ndarray, i: int, bptt: int) -> tuple[np.ndarray, np.ndarray]:
    """Slice inputs ``(bptt, B)`` and next-token targets from batchified data."""
    seq_len = min(bptt, len(data) - 1 - i)
    x = data[i : i + seq_len]
    y = data[i + 1 : i + 1 + seq_len]
    return x, y


def lm_chunks(data: np.ndarray, bptt: int) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """One pass over batchified data as ``(x, y, reset)`` chunks — a loader
    for :func:`repro.core.lm_batch`; ``reset`` marks the first chunk, where
    the carried recurrent state is dropped."""
    return [(*get_lm_batch(data, i, bptt), i == 0) for i in range(0, len(data) - 1, bptt)]


@dataclass
class TranslationDataset:
    """Parallel corpus of padded integer sequences ``(N, T)``.

    Special tokens: 0 = PAD, 1 = BOS, 2 = EOS; real tokens start at 3.
    """

    src: np.ndarray
    tgt: np.ndarray
    vocab_size: int
    pad_idx: ClassVar[int] = 0
    bos_idx: ClassVar[int] = 1
    eos_idx: ClassVar[int] = 2

    def __len__(self) -> int:
        return len(self.src)

    def split(self, n_train: int) -> tuple["TranslationDataset", "TranslationDataset"]:
        a = TranslationDataset(self.src[:n_train], self.tgt[:n_train], self.vocab_size)
        b = TranslationDataset(self.src[n_train:], self.tgt[n_train:], self.vocab_size)
        return a, b

    def batches(self, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """In-order ``(src, tgt)`` slices of ``batch_size`` pairs — a loader
        for :func:`repro.core.seq2seq_batch`."""
        return [
            (self.src[i : i + batch_size], self.tgt[i : i + batch_size])
            for i in range(0, len(self), batch_size)
        ]


def make_translation_dataset(
    n: int = 1024,
    vocab_size: int = 64,
    min_len: int = 4,
    max_len: int = 10,
    rng: np.random.Generator | None = None,
) -> TranslationDataset:
    """Reverse-and-relabel translation pairs.

    src:  ``[t1 .. tk EOS PAD…]``
    tgt:  ``[BOS perm(tk) .. perm(t1) EOS PAD…]``
    """
    rng = rng or spawn_rng()
    n_special = 3
    real = vocab_size - n_special
    perm = rng.permutation(real) + n_special  # bijection on real tokens

    width = max_len + 2
    src = np.zeros((n, width), dtype=np.int64)
    tgt = np.zeros((n, width), dtype=np.int64)
    for i in range(n):
        k = int(rng.integers(min_len, max_len + 1))
        tokens = rng.integers(n_special, vocab_size, k)
        mapped = perm[tokens - n_special][::-1]
        src[i, :k] = tokens
        src[i, k] = 2  # EOS
        tgt[i, 0] = 1  # BOS
        tgt[i, 1 : 1 + k] = mapped
        tgt[i, 1 + k] = 2  # EOS
    return TranslationDataset(src, tgt, vocab_size)
