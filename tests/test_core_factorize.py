"""Truncated-SVD factorization: optimality, Σ^½ splitting, conv unrolling,
per-layer warm-started construction."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    factorize_conv2d,
    factorize_linear,
    factorize_lstm_layer,
    factorize_matrix,
    unroll_conv_weight,
)
from repro.core.factorize import approximation_error, default_rank, roll_conv_factors
from repro.tensor import Tensor


class TestFactorizeMatrix:
    def test_full_rank_recovers_exactly(self, rng):
        w = rng.standard_normal((12, 8)).astype(np.float32)
        u, vt = factorize_matrix(w, 8)
        assert np.allclose(u @ vt, w, atol=1e-4)

    def test_shapes(self, rng):
        w = rng.standard_normal((10, 6)).astype(np.float32)
        u, vt = factorize_matrix(w, 3)
        assert u.shape == (10, 3) and vt.shape == (3, 6)

    def test_rank_clamped_to_matrix_rank(self, rng):
        w = rng.standard_normal((5, 3)).astype(np.float32)
        u, vt = factorize_matrix(w, 100)
        assert u.shape[1] == 3

    def test_error_decreases_with_rank(self, rng):
        w = rng.standard_normal((20, 20)).astype(np.float32)
        errs = [
            approximation_error(w, *factorize_matrix(w, r)) for r in (2, 5, 10, 20)
        ]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-4

    def test_eckart_young_optimality(self, rng):
        # Truncated SVD must beat a random rank-r factorization.
        w = rng.standard_normal((16, 16)).astype(np.float32)
        u, vt = factorize_matrix(w, 4)
        svd_err = np.linalg.norm(w - u @ vt)
        ru = rng.standard_normal((16, 4)).astype(np.float32)
        rv = rng.standard_normal((4, 16)).astype(np.float32)
        rand_err = np.linalg.norm(w - ru @ rv)
        assert svd_err < rand_err

    def test_sigma_split_balances_factor_norms(self, rng):
        # With U = Ũ Σ^½ and V^T = Σ^½ Ṽ^T, both factors carry the same
        # Frobenius energy.
        w = rng.standard_normal((10, 10)).astype(np.float32)
        u, vt = factorize_matrix(w, 5)
        assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(vt), rel=1e-3)

    def test_non_2d_raises(self, rng):
        with pytest.raises(ValueError):
            factorize_matrix(rng.standard_normal((2, 2, 2)), 1)

    def test_exact_low_rank_input_recovered(self, rng):
        a = rng.standard_normal((10, 3)).astype(np.float32)
        b = rng.standard_normal((3, 8)).astype(np.float32)
        w = a @ b
        u, vt = factorize_matrix(w, 3)
        assert approximation_error(w, u, vt) < 1e-5


class TestConvUnrolling:
    def test_unroll_shape(self, rng):
        w = rng.standard_normal((8, 3, 5, 5)).astype(np.float32)
        assert unroll_conv_weight(w).shape == (75, 8)

    def test_unroll_columns_are_filters(self, rng):
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        unrolled = unroll_conv_weight(w)
        assert np.allclose(unrolled[:, 1], w[1].reshape(-1))

    def test_roll_roundtrip(self, rng):
        w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        u, vt = factorize_matrix(unroll_conv_weight(w), rank=min(4 * 9, 6))
        uk, vk = roll_conv_factors(u, vt, 4, 6, 3)
        assert uk.shape == (6, 4, 3, 3)
        assert vk.shape == (6, 6, 1, 1)


class TestDefaultRank:
    def test_quarter_ratio(self):
        assert default_rank(64, 0.25) == 16
        assert default_rank(512, 0.25) == 128

    def test_never_below_one(self):
        assert default_rank(2, 0.25) == 1
        assert default_rank(1, 0.1) == 1


class TestFactorizeLinear:
    def test_full_rank_functional_equivalence(self, rng):
        lin = nn.Linear(10, 6)
        lr = factorize_linear(lin, 6)
        x = Tensor(rng.standard_normal((4, 10)))
        assert np.allclose(lin(x).data, lr(x).data, atol=1e-4)

    def test_bias_copied(self):
        lin = nn.Linear(5, 4)
        lr = factorize_linear(lin, 2)
        assert np.allclose(lr.bias.data, lin.bias.data)

    def test_no_bias_preserved(self):
        lin = nn.Linear(5, 4, bias=False)
        lr = factorize_linear(lin, 2)
        assert lr.bias is None

    def test_param_reduction(self):
        lin = nn.Linear(100, 100)
        lr = factorize_linear(lin, 25)
        assert lr.num_parameters() < lin.num_parameters()

    def test_effective_weight_is_best_approx(self, rng):
        lin = nn.Linear(20, 20)
        lr = factorize_linear(lin, 5)
        err = approximation_error(lin.weight.data, lr.u.data, lr.vt.data)
        s = np.linalg.svd(lin.weight.data.astype(np.float64), compute_uv=False)
        expected = np.sqrt((s[5:] ** 2).sum() / (s**2).sum())
        assert err == pytest.approx(expected, rel=1e-2)


class TestFactorizeConv:
    def test_full_rank_functional_equivalence(self, rng):
        conv = nn.Conv2d(3, 8, 3, stride=1, padding=1)
        lr = factorize_conv2d(conv, rank=8)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        assert np.allclose(conv(x).data, lr(x).data, atol=1e-3)

    def test_stride_padding_preserved(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        lr = factorize_conv2d(conv, 4)
        assert lr.conv_u.stride == 2 and lr.conv_u.padding == 1
        assert lr.conv_v.stride == 1 and lr.conv_v.padding == 0

    def test_output_shape_matches_original(self, rng):
        conv = nn.Conv2d(4, 6, 3, stride=2, padding=1)
        lr = factorize_conv2d(conv, 2)
        x = Tensor(rng.standard_normal((1, 4, 9, 9)))
        assert lr(x).shape == conv(x).shape

    def test_effective_weight_close_at_high_rank(self, rng):
        conv = nn.Conv2d(2, 4, 3)
        lr = factorize_conv2d(conv, rank=4)
        assert np.allclose(lr.effective_weight(), conv.weight.data, atol=1e-4)

    def test_bias_moves_to_conv_v(self):
        conv = nn.Conv2d(2, 4, 3, bias=True)
        lr = factorize_conv2d(conv, 2)
        assert np.allclose(lr.conv_v.bias.data, conv.bias.data)
        assert lr.conv_u.bias is None


class TestFactorizeLSTM:
    def test_full_rank_equivalence_square(self, rng):
        layer = nn.LSTMLayer(6, 6)
        lr = factorize_lstm_layer(layer, 6)
        x = Tensor(rng.standard_normal((3, 2, 6)))
        o1, _ = layer(x)
        o2, _ = lr(x)
        assert np.allclose(o1.data, o2.data, atol=1e-3)

    def test_rank_clamped(self):
        layer = nn.LSTMLayer(4, 8)
        lr = factorize_lstm_layer(layer, 100)
        assert lr.rank == 4

    def test_biases_copied(self):
        layer = nn.LSTMLayer(5, 5)
        lr = factorize_lstm_layer(layer, 2)
        assert np.allclose(lr.bias_ih.data, layer.bias_ih.data)
        assert np.allclose(lr.bias_hh.data, layer.bias_hh.data)

    def test_per_gate_factorization(self, rng):
        # Each gate's U V^T must approximate that gate's slice.
        layer = nn.LSTMLayer(6, 6)
        lr = factorize_lstm_layer(layer, 6)
        h = 6
        for gate in range(4):
            w_gate = layer.weight_ih.data[gate * h : (gate + 1) * h]
            approx = lr.u_ih.data[gate] @ lr.vt_ih.data[gate]
            assert np.allclose(approx, w_gate, atol=1e-4)
