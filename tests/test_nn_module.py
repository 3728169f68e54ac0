"""Module/Parameter registration, iteration, state dicts, submodule paths."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(4, 3)
        self.bn = nn.BatchNorm1d(3)
        self.scale = Parameter(np.ones(3, dtype=np.float32))

    def forward(self, x):
        return self.bn(self.lin(x)) * self.scale


class TestRegistration:
    def test_parameter_registered(self):
        m = Toy()
        names = [n for n, _ in m.named_parameters()]
        assert "scale" in names
        assert "lin.weight" in names
        assert "bn.weight" in names

    def test_module_registered(self):
        m = Toy()
        assert "lin" in m._modules and "bn" in m._modules

    def test_buffers_registered(self):
        m = Toy()
        names = [n for n, _ in m.named_buffers()]
        assert "bn.running_mean" in names and "bn.running_var" in names

    def test_reassignment_with_plain_value_unregisters(self):
        m = Toy()
        m.scale = 5
        assert "scale" not in [n for n, _ in m.named_parameters()]

    def test_replacing_module_updates_registry(self):
        m = Toy()
        m.lin = nn.Linear(4, 3, bias=False)
        assert "lin.bias" not in [n for n, _ in m.named_parameters()]

    def test_num_parameters(self):
        m = nn.Linear(4, 3)
        assert m.num_parameters() == 4 * 3 + 3

    def test_modules_iteration_includes_self_and_children(self):
        m = Toy()
        mods = list(m.modules())
        assert m in mods and m.lin in mods and m.bn in mods


class TestSubmodulePaths:
    def test_get_submodule(self):
        m = Toy()
        assert m.get_submodule("lin") is m.lin
        assert m.get_submodule("") is m

    def test_set_submodule(self):
        m = Toy()
        new = nn.Linear(4, 3)
        m.set_submodule("lin", new)
        assert m.lin is new

    def test_nested_paths_in_sequential(self):
        s = nn.Sequential(nn.Linear(2, 2), nn.Sequential(nn.Linear(2, 2)))
        inner = s.get_submodule("1.0")
        assert isinstance(inner, nn.Linear)
        s.set_submodule("1.0", nn.Linear(2, 3))
        assert s.get_submodule("1.0").out_features == 3


class TestTrainEval:
    def test_train_eval_propagates(self):
        m = Toy()
        m.eval()
        assert not m.training and not m.bn.training
        m.train()
        assert m.training and m.bn.training


class TestStateDict:
    def test_roundtrip_exact(self, rng):
        m1, m2 = Toy(), Toy()
        # Touch BN running stats so buffers are non-trivial.
        m1(__import__("repro.tensor", fromlist=["Tensor"]).Tensor(rng.standard_normal((8, 4))))
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2 and np.allclose(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(m1.named_buffers(), m2.named_buffers()):
            assert n1 == n2 and np.allclose(b1, b2)

    def test_state_dict_is_a_copy(self):
        m = Toy()
        sd = m.state_dict()
        sd["scale"][...] = 99
        assert not np.allclose(m.scale.data, 99)

    def test_shape_mismatch_raises(self):
        m = Toy()
        sd = m.state_dict()
        sd["lin.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(sd)

    def test_buffer_shape_mismatch_raises(self):
        m = Toy()
        sd = m.state_dict()
        name = next(name for name, _ in m.named_buffers())
        sd[name] = np.zeros(sd[name].size + 1, dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            m.load_state_dict(sd)

    def test_unexpected_key_raises_when_strict(self):
        m = Toy()
        sd = m.state_dict()
        sd["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_missing_key_raises_when_strict(self):
        m = Toy()
        sd = m.state_dict()
        del sd["scale"]
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_non_strict_allows_partial(self):
        m = Toy()
        sd = {"scale": np.full(3, 2.0, dtype=np.float32)}
        m.load_state_dict(sd, strict=False)
        assert np.allclose(m.scale.data, 2.0)


class TestZeroGrad:
    def test_clears_all(self, rng):
        from repro.tensor import Tensor

        m = Toy()
        out = m(Tensor(rng.standard_normal((4, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestParameterFlags:
    def test_norm_params_flagged_no_decay(self):
        m = Toy()
        assert m.bn.weight.no_decay and m.bn.bias.no_decay
        assert not m.lin.weight.no_decay
