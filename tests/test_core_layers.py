"""Low-rank layers: shapes, Table 1 parameter counts, gradients."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    FactorizationConfig,
    LowRankConv2d,
    LowRankLinear,
    LowRankLSTMLayer,
    build_hybrid,
)
from repro.metrics import (
    lowrank_conv_params,
    lowrank_fc_params,
    lowrank_lstm_params,
)
from repro.tensor import Tensor, check_gradients


class TestLowRankLinear:
    def test_forward_shape(self, rng):
        lr = LowRankLinear(10, 6, rank=3)
        assert lr(Tensor(rng.standard_normal((4, 10)))).shape == (4, 6)

    def test_param_count_table1(self):
        m, n, r = 20, 30, 5
        lr = LowRankLinear(n, m, rank=r, bias=False)
        assert lr.num_parameters() == lowrank_fc_params(m, n, r)

    def test_effective_weight_shape(self):
        lr = LowRankLinear(8, 5, rank=2)
        assert lr.effective_weight().shape == (5, 8)

    def test_forward_equals_effective_weight(self, rng):
        lr = LowRankLinear(6, 4, rank=2)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        out = lr(Tensor(x))
        assert np.allclose(out.data, x @ lr.effective_weight().T + lr.bias.data, atol=1e-5)

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            LowRankLinear(4, 4, rank=0)

    def test_gradcheck(self, rng):
        lr = LowRankLinear(5, 4, rank=2)
        x = Tensor(rng.standard_normal((3, 5)))
        check_gradients(lambda: (lr(x) ** 2).sum(), [lr.u, lr.vt, lr.bias])

    def test_3d_input(self, rng):
        lr = LowRankLinear(5, 4, rank=2)
        assert lr(Tensor(rng.standard_normal((2, 3, 5)))).shape == (2, 3, 4)


class TestLowRankConv2d:
    def test_forward_shape(self, rng):
        lr = LowRankConv2d(3, 8, 3, rank=2, stride=2, padding=1)
        out = lr(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_param_count_table1(self):
        c_in, c_out, k, r = 16, 32, 3, 4
        lr = LowRankConv2d(c_in, c_out, k, rank=r, bias=False)
        assert lr.num_parameters() == lowrank_conv_params(c_in, c_out, k, r)

    def test_structure_thin_then_1x1(self):
        lr = LowRankConv2d(4, 8, 3, rank=2)
        assert lr.conv_u.out_channels == 2 and lr.conv_u.kernel_size == 3
        assert lr.conv_v.in_channels == 2 and lr.conv_v.kernel_size == 1

    def test_bias_property(self):
        lr = LowRankConv2d(4, 8, 3, rank=2, bias=True)
        assert lr.bias is lr.conv_v.bias

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            LowRankConv2d(4, 8, 3, rank=0)

    def test_gradients_flow(self, rng):
        lr = LowRankConv2d(2, 4, 3, rank=2, padding=1)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        lr(x).sum().backward()
        assert all(p.grad is not None for p in lr.parameters())


class TestLowRankLSTMLayer:
    def test_forward_shapes(self, rng):
        lr = LowRankLSTMLayer(6, 8, rank=2)
        out, (h, c) = lr(Tensor(rng.standard_normal((4, 3, 6))))
        assert out.shape == (4, 3, 8)
        assert h.shape == (3, 8)

    def test_param_count_table1(self):
        d, h, r = 10, 12, 3
        lr = LowRankLSTMLayer(d, h, rank=r)
        assert lr.num_parameters() == lowrank_lstm_params(d, h, r) + 8 * h

    def test_state_carry(self, rng):
        lr = LowRankLSTMLayer(4, 5, rank=2)
        x = rng.standard_normal((6, 2, 4)).astype(np.float32)
        full, _ = lr(Tensor(x))
        a, st = lr(Tensor(x[:3]))
        b, _ = lr(Tensor(x[3:]), st)
        assert np.allclose(full.data[:3], a.data, atol=1e-5)
        assert np.allclose(full.data[3:], b.data, atol=1e-5)

    def test_gradients_flow(self, rng):
        lr = LowRankLSTMLayer(3, 4, rank=2)
        out, _ = lr(Tensor(rng.standard_normal((3, 2, 3))))
        out.sum().backward()
        assert all(p.grad is not None for p in lr.parameters())

    def test_gradcheck(self, rng):
        lr = LowRankLSTMLayer(3, 3, rank=2)
        x = Tensor(rng.standard_normal((2, 2, 3)))
        check_gradients(
            lambda: (lr(x)[0] ** 2).sum(),
            [lr.u_ih, lr.vt_ih, lr.u_hh, lr.vt_hh],
            rtol=2e-2,
            atol=2e-3,
        )

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            LowRankLSTMLayer(4, 4, rank=0)


class TestLowRankLSTMStack:
    """A stacked low-rank LSTM is an ``nn.LSTM`` holding low-rank layers:
    what ``build_hybrid`` makes of a vanilla stack."""

    def test_two_layers(self, rng):
        vanilla = nn.LSTM(6, 8, num_layers=2, dropout=0.0)
        lstm, report = build_hybrid(vanilla, FactorizationConfig(rank_overrides={"layers.0": 2, "layers.1": 2}))
        assert [r for _, r in report.replaced] == [2, 2]
        assert all(isinstance(layer, LowRankLSTMLayer) for layer in lstm.layers)
        out, states = lstm(Tensor(rng.standard_normal((4, 2, 6))))
        assert out.shape == (4, 2, 8)
        assert len(states) == 2

    def test_smaller_than_vanilla(self):
        vanilla = nn.LSTM(64, 64, num_layers=2)
        low, _ = build_hybrid(vanilla, FactorizationConfig(rank_ratio=0.25))
        assert low.num_parameters() < vanilla.num_parameters()
