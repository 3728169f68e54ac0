"""Tucker-2 convolution decomposition (the paper's tensor-decomposition
extension)."""

import numpy as np
import pytest

from repro import nn
from repro.core import TuckerConv2d, tucker2_decompose, tucker_conv_from
from repro.core.tucker import mode_fold, mode_unfold
from repro.core.tucker import tucker2_reconstruct
from repro.tensor import Tensor


class TestModeUnfolding:
    def test_shapes(self, rng):
        t = rng.standard_normal((4, 3, 2, 2))
        assert mode_unfold(t, 0).shape == (4, 12)
        assert mode_unfold(t, 1).shape == (3, 16)

    def test_fold_roundtrip(self, rng):
        t = rng.standard_normal((4, 3, 2, 5))
        for mode in range(4):
            m = mode_unfold(t, mode)
            back = mode_fold(m, mode, t.shape)
            assert np.allclose(back, t)


class TestTucker2Decompose:
    def test_shapes(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        core, a, b = tucker2_decompose(w, rank_out=4, rank_in=3)
        assert core.shape == (4, 3, 3, 3)
        assert a.shape == (8, 4)
        assert b.shape == (6, 3)

    def test_full_rank_exact(self, rng):
        w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        core, a, b = tucker2_decompose(w, rank_out=6, rank_in=4)
        assert np.allclose(tucker2_reconstruct(core, a, b), w, atol=1e-4)

    def test_rank_clamped(self, rng):
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        core, a, b = tucker2_decompose(w, rank_out=100, rank_in=100)
        assert a.shape[1] == 4 and b.shape[1] == 3

    def test_factors_orthonormal(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        _, a, b = tucker2_decompose(w, 4, 3)
        assert np.allclose(a.T @ a, np.eye(4), atol=1e-4)
        assert np.allclose(b.T @ b, np.eye(3), atol=1e-4)

    def test_error_decreases_with_rank(self, rng):
        w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        errs = []
        for r in (2, 4, 8):
            core, a, b = tucker2_decompose(w, r, r)
            errs.append(np.linalg.norm(tucker2_reconstruct(core, a, b) - w))
        assert errs[0] >= errs[1] >= errs[2]

    def test_non_4d_raises(self, rng):
        with pytest.raises(ValueError):
            tucker2_decompose(rng.standard_normal((4, 4)), 2, 2)


class TestTuckerConv2d:
    def test_forward_shape(self, rng):
        conv = TuckerConv2d(6, 8, 3, rank_in=3, rank_out=4, stride=2, padding=1)
        out = conv(Tensor(rng.standard_normal((2, 6, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_param_count(self):
        c_in, c_out, k, r_in, r_out = 16, 32, 3, 4, 8
        conv = TuckerConv2d(c_in, c_out, k, rank_in=r_in, rank_out=r_out, bias=False)
        expected = c_in * r_in + r_in * r_out * k * k + r_out * c_out
        assert conv.num_parameters() == expected

    def test_smaller_than_vanilla(self):
        vanilla = nn.Conv2d(64, 64, 3, bias=False)
        tucker = TuckerConv2d(64, 64, 3, rank_in=16, rank_out=16, bias=False)
        assert tucker.num_parameters() < vanilla.num_parameters()

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            TuckerConv2d(4, 4, 3, rank_in=0, rank_out=2)

    def test_gradients_flow(self, rng):
        conv = TuckerConv2d(3, 4, 3, rank_in=2, rank_out=2, padding=1)
        out = conv(Tensor(rng.standard_normal((1, 3, 5, 5))))
        out.sum().backward()
        assert all(p.grad is not None for p in conv.parameters())


class TestTuckerWarmStart:
    def test_full_rank_functional_equivalence(self, rng):
        conv = nn.Conv2d(4, 6, 3, padding=1)
        tucker = tucker_conv_from(conv, rank_in=4, rank_out=6)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        assert np.allclose(conv(x).data, tucker(x).data, atol=1e-3)

    def test_effective_weight_matches_decomposition(self, rng):
        conv = nn.Conv2d(4, 6, 3)
        tucker = tucker_conv_from(conv, rank_in=2, rank_out=3)
        core, a, b = tucker2_decompose(conv.weight.data, 3, 2)
        assert np.allclose(
            tucker.effective_weight(), tucker2_reconstruct(core, a, b), atol=1e-4
        )

    def test_bias_carried(self):
        conv = nn.Conv2d(3, 5, 3, bias=True)
        tucker = tucker_conv_from(conv, 2, 2)
        assert np.allclose(tucker.conv_out.bias.data, conv.bias.data)

    def test_geometry_preserved(self):
        conv = nn.Conv2d(3, 5, 3, stride=2, padding=1)
        tucker = tucker_conv_from(conv, 2, 2)
        assert tucker.conv_core.stride == 2 and tucker.conv_core.padding == 1

    def test_approximation_competitive_with_svd(self, rng):
        """At matched parameter budgets, Tucker-2 and unrolled-SVD both give
        usable approximations (neither is degenerate)."""
        from repro.core import factorize_conv2d

        conv = nn.Conv2d(16, 16, 3, bias=False)
        w = conv.weight.data
        svd_version = factorize_conv2d(conv, rank=4)
        r = 6  # picks Tucker ranks with a similar parameter count
        tucker = tucker_conv_from(conv, rank_in=r, rank_out=r)
        err_svd = np.linalg.norm(svd_version.effective_weight() - w) / np.linalg.norm(w)
        err_tucker = np.linalg.norm(tucker.effective_weight() - w) / np.linalg.norm(w)
        assert err_svd < 1.0 and err_tucker < 1.0
