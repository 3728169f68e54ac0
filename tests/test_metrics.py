"""Metrics: MAC measurement vs Table 1 closed forms, accuracy, perplexity,
BLEU."""

import math

import numpy as np
import pytest

from repro import nn
from repro.core import LowRankConv2d, LowRankLinear, LowRankLSTMLayer
from repro.metrics import (
    accuracy,
    attention_params,
    conv_macs,
    conv_params,
    corpus_bleu,
    fc_macs,
    fc_params,
    ffn_params,
    lowrank_attention_params,
    lowrank_conv_macs,
    lowrank_conv_params,
    lowrank_fc_macs,
    lowrank_fc_params,
    lowrank_ffn_params,
    lowrank_lstm_params,
    lstm_params,
    measure_macs,
    perplexity,
    topk_accuracy,
)
from repro.metrics.bleu import sentence_ngrams
from repro.metrics.macs import (
    attention_macs,
    ffn_macs,
    lowrank_attention_macs,
    lowrank_ffn_macs,
    lowrank_lstm_macs,
    lstm_macs,
)
from repro.tensor import Tensor


class TestMeasuredMacs:
    def test_linear_matches_formula(self, rng):
        lin = nn.Linear(64, 32, bias=False)
        m = measure_macs(lin, Tensor(np.zeros((1, 64), dtype=np.float32)))
        assert m == fc_macs(32, 64)

    def test_lowrank_linear_matches_formula(self, rng):
        lr = LowRankLinear(64, 32, rank=8, bias=False)
        m = measure_macs(lr, Tensor(np.zeros((1, 64), dtype=np.float32)))
        assert m == lowrank_fc_macs(32, 64, 8)

    def test_conv_matches_formula(self):
        conv = nn.Conv2d(16, 32, 3, padding=1, bias=False)
        m = measure_macs(conv, Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32)))
        assert m == conv_macs(16, 32, 3, 8, 8)

    def test_lowrank_conv_matches_formula(self):
        lr = LowRankConv2d(16, 32, 3, rank=4, padding=1, bias=False)
        m = measure_macs(lr, Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32)))
        assert m == lowrank_conv_macs(16, 32, 3, 8, 8, 4)

    def test_batch_scales_macs(self):
        conv = nn.Conv2d(4, 8, 3, bias=False)
        m1 = measure_macs(conv, Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32)))
        m2 = measure_macs(conv, Tensor(np.zeros((2, 4, 8, 8), dtype=np.float32)))
        assert m2 == 2 * m1

    def test_counter_inactive_outside_context(self):
        from repro.tensor.profiler import macs_active

        assert not macs_active()

    def test_nested_counting_isolated(self):
        from repro.tensor import count_macs

        lin = nn.Linear(8, 8, bias=False)
        x = Tensor(np.zeros((1, 8), dtype=np.float32))
        with count_macs() as outer:
            lin(x)
            with count_macs() as inner:
                lin(x)
        assert inner.total == fc_macs(8, 8)
        assert outer.total == fc_macs(8, 8)  # inner context shadows

    def test_paper_table4_macs(self):
        # VGG-19 on 32×32: paper reports 0.4 G vanilla, 0.29 G Pufferfish.
        from repro.core import build_hybrid
        from repro.models import vgg19, vgg19_hybrid_config

        v = vgg19(num_classes=10)
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert measure_macs(v, x) / 1e9 == pytest.approx(0.4, abs=0.01)
        h, _ = build_hybrid(v, vgg19_hybrid_config())
        assert measure_macs(h, x) / 1e9 == pytest.approx(0.29, abs=0.01)


# Table 1's sequence rows: p heads of dimension d over n tokens; one LSTM step
# with d = h.
P, D, N, H = 8, 64, 10, 96
PD = P * D


class _PerHeadLowRank(nn.Module):
    """A pd -> pd projection factorized head by head, as Table 1 counts it:
    p rank-r maps pd -> d side by side.  (The hybrid Transformer factorizes
    the stacked projection as one LowRankLinear, the fc row's form.)"""

    def __init__(self, r: int):
        super().__init__()
        self.heads = nn.ModuleList(LowRankLinear(PD, D, r, bias=False) for _ in range(P))

    def forward(self, x):
        return Tensor.concat([head(x) for head in self.heads], axis=-1)


def _lowrank_attention(r: int):
    mha = nn.MultiHeadAttention(PD, P)
    mha.wq, mha.wk, mha.wv = (_PerHeadLowRank(r) for _ in range(3))
    mha.wo = LowRankLinear(PD, PD, r)
    return mha


def _lowrank_ffn(r: int):
    ffn = nn.PositionwiseFFN(PD, 4 * PD)
    ffn.layer1 = LowRankLinear(PD, 4 * PD, r)
    ffn.layer2 = LowRankLinear(4 * PD, PD, r)
    return ffn


def _tokens(shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


_STEP, _SEQ = (1, 1, H), (1, N, PD)
# name -> (module builder, inputs, closed form)
SEQUENCE_ROWS = {
    "lstm": (lambda: nn.LSTMLayer(H, H), [_STEP], lstm_macs(H, H)),
    "lowrank_lstm": (lambda: LowRankLSTMLayer(H, H, 24), [_STEP], lowrank_lstm_macs(H, H, 24)),
    "attention": (lambda: nn.MultiHeadAttention(PD, P), [_SEQ] * 3, attention_macs(P, D, N)),
    "lowrank_attention": (
        lambda: _lowrank_attention(16), [_SEQ] * 3, lowrank_attention_macs(P, D, N, 16)
    ),
    "ffn": (lambda: nn.PositionwiseFFN(PD, 4 * PD), [_SEQ], ffn_macs(P, D, N)),
    "lowrank_ffn": (lambda: _lowrank_ffn(128), [_SEQ], lowrank_ffn_macs(P, D, N, 128)),
}


class TestTable1SequenceMacs:
    """The LSTM / attention / FFN closed forms against one measured forward."""

    @pytest.mark.parametrize("name", sorted(SEQUENCE_ROWS))
    def test_formula_matches_measured(self, name):
        build, shapes, formula = SEQUENCE_ROWS[name]
        assert measure_macs(build(), *map(_tokens, shapes)) == formula

    def test_paper_scale_values(self):
        assert lstm_macs(H, H) == 73_728
        assert attention_macs(P, D, N) == 10_588_160
        assert ffn_macs(P, D, N) == 20_971_520


class TestTable1Formulas:
    def test_fc(self):
        assert fc_params(100, 50) == 5000
        assert lowrank_fc_params(100, 50, 10) == 1500

    def test_conv(self):
        assert conv_params(16, 32, 3) == 4608
        assert lowrank_conv_params(16, 32, 3, 4) == 16 * 4 * 9 + 4 * 32

    def test_lstm(self):
        assert lstm_params(10, 20) == 4 * (200 + 400)
        assert lowrank_lstm_params(10, 20, 5) == 4 * 10 * 5 + 12 * 20 * 5

    def test_attention(self):
        p, d, r = 8, 64, 16
        assert attention_params(p, d) == 4 * p * p * d * d
        assert lowrank_attention_params(p, d, r) == (3 * p + 5) * p * r * d

    def test_ffn(self):
        p, d, r = 8, 64, 16
        assert ffn_params(p, d) == 8 * p * p * d * d
        assert lowrank_ffn_params(p, d, r) == 10 * p * d * r

    def test_lowrank_beats_vanilla_at_quarter_rank(self):
        # The headline claim of Table 1: r = full/4 shrinks every layer type.
        assert lowrank_fc_params(512, 512, 128) < fc_params(512, 512)
        assert lowrank_conv_params(512, 512, 3, 128) < conv_params(512, 512, 3)
        assert lowrank_lstm_params(1500, 1500, 375) < lstm_params(1500, 1500)
        # Per-head projections are pd×d, so quarter rank is d/4, not pd/4.
        assert lowrank_attention_params(8, 64, 16) < attention_params(8, 64)
        assert lowrank_ffn_params(8, 64, 128) < ffn_params(8, 64)


class TestAccuracy:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        assert accuracy(logits, np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_top5_always_geq_top1(self, rng):
        logits = rng.standard_normal((50, 10))
        t = rng.integers(0, 10, 50)
        assert topk_accuracy(logits, t, 5) >= topk_accuracy(logits, t, 1)

    def test_topk_equals_one_when_k_is_num_classes(self, rng):
        logits = rng.standard_normal((20, 4))
        t = rng.integers(0, 4, 20)
        assert topk_accuracy(logits, t, 4) == 1.0

    def test_3d_logits_flattened(self, rng):
        logits = rng.standard_normal((2, 5, 4))
        t = rng.integers(0, 4, (2, 5))
        val = topk_accuracy(logits, t, 1)
        assert 0.0 <= val <= 1.0


class TestPerplexity:
    def test_exp_of_nll(self):
        assert perplexity(math.log(50)) == pytest.approx(50)

    def test_capped_on_overflow(self):
        assert perplexity(1e6) == 1e9

    def test_zero_loss_is_one(self):
        assert perplexity(0.0) == pytest.approx(1.0)


class TestBLEU:
    def test_perfect_match_scores_100(self):
        seqs = [[3, 4, 5, 6, 7], [8, 9, 10, 11]]
        assert corpus_bleu(seqs, seqs) == pytest.approx(100.0, abs=0.01)

    def test_disjoint_scores_near_zero(self):
        assert corpus_bleu([[3, 4, 5, 6]], [[7, 8, 9, 10]]) < 1.0

    def test_brevity_penalty(self):
        ref = [[3, 4, 5, 6, 7, 8]]
        short = [[3, 4, 5]]
        full = [[3, 4, 5, 6, 7, 8]]
        assert corpus_bleu(short, ref) < corpus_bleu(full, ref)

    def test_strip_ids_removes_special_tokens(self):
        hyp = [[1, 3, 4, 2, 0, 0]]
        ref = [[3, 4]]
        assert corpus_bleu(hyp, ref, strip_ids={0, 1, 2}) == pytest.approx(100.0, abs=0.01)

    def test_empty_hypothesis_zero(self):
        assert corpus_bleu([[]], [[3, 4]]) == 0.0

    def test_partial_overlap_intermediate(self):
        hyp = [[3, 4, 5, 9, 10, 11]]
        ref = [[3, 4, 5, 6, 7, 8]]
        score = corpus_bleu(hyp, ref)
        assert 0.0 < score < 100.0

    def test_sentence_ngrams(self):
        grams = sentence_ngrams([1, 2, 1, 2], 2)
        assert grams[(1, 2)] == 2
        assert grams[(2, 1)] == 1

    def test_in_range(self, rng):
        hyp = [list(rng.integers(3, 20, 8)) for _ in range(5)]
        ref = [list(rng.integers(3, 20, 8)) for _ in range(5)]
        assert 0.0 <= corpus_bleu(hyp, ref) <= 100.0
