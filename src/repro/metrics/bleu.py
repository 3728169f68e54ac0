"""Corpus BLEU (Papineni et al. 2002) for the translation benchmark.

Standard BLEU-4 with uniform n-gram weights and the brevity penalty,
operating on integer token sequences (pad/eos stripped by the caller or
via ``strip_ids``), and the one validation of a seq2seq model: teacher-forced
NLL plus greedy-decode BLEU.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from ..core.trainer import seq2seq_batch
from ..nn import CrossEntropyLoss
from ..tensor import no_grad

__all__ = ["corpus_bleu", "sentence_ngrams", "evaluate_translation"]


def sentence_ngrams(tokens: Sequence[int], n: int) -> Counter:
    """Multiset of n-grams of order ``n``."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _strip(seq: Sequence[int], strip_ids: frozenset) -> list[int]:
    return [t for t in seq if t not in strip_ids]


# BLEU-4: n-gram orders 1..4.
_MAX_N = 4
# Added to clipped counts so short corpora with a missing n-gram order
# don't collapse to exactly zero (add-epsilon smoothing).
_SMOOTH = 1e-9


def corpus_bleu(
    hypotheses: Iterable[Sequence[int]],
    references: Iterable[Sequence[int]],
    strip_ids: Iterable[int] = (),
) -> float:
    """Corpus-level BLEU-4 in [0, 100], add-epsilon smoothed."""
    strip = frozenset(strip_ids)
    clipped = [0] * _MAX_N
    totals = [0] * _MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = _strip(hyp, strip)
        ref = _strip(ref, strip)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, _MAX_N + 1):
            h_ngrams = sentence_ngrams(hyp, n)
            r_ngrams = sentence_ngrams(ref, n)
            totals[n - 1] += max(sum(h_ngrams.values()), 0)
            clipped[n - 1] += sum(
                min(count, r_ngrams.get(gram, 0)) for gram, count in h_ngrams.items()
            )
    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for n in range(_MAX_N):
        if totals[n] == 0:
            continue
        p = (clipped[n] + _SMOOTH) / totals[n]
        log_precisions.append(math.log(p))
    if not log_precisions:
        return 0.0
    geo_mean = math.exp(sum(log_precisions) / len(log_precisions))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geo_mean


def evaluate_translation(model, dataset) -> tuple[float, float]:
    """``(nll, bleu)`` of a seq2seq model on a ``TranslationDataset``.

    ``nll`` is the teacher-forced cross-entropy per target token (no label
    smoothing, padding ignored); ``bleu`` is :func:`corpus_bleu` of greedy
    decodes against the targets, special tokens stripped.  Runs in eval mode
    without a graph, draws no randomness and writes no parameter.
    """
    model.eval()
    with no_grad():
        loss, _, _ = seq2seq_batch(
            model, (dataset.src, dataset.tgt), CrossEntropyLoss(ignore_index=dataset.pad_idx)
        )
    special = (dataset.pad_idx, dataset.bos_idx, dataset.eos_idx)
    hyp = model.greedy_decode(
        dataset.src, bos=dataset.bos_idx, eos=dataset.eos_idx, max_len=dataset.tgt.shape[1]
    )
    bleu = corpus_bleu([list(h) for h in hyp], [list(t) for t in dataset.tgt], strip_ids=special)
    return float(loss.data), bleu
