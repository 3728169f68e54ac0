"""Flat parameter arena + arena SGD: aliasing and bit-exactness vs the
per-tensor loop kept in ``tests/oracles.py``."""

import numpy as np
import pytest

from repro import nn
from repro.models import MLP
from repro.nn import ParameterArena
from repro.optim import SGD
from repro.tensor import Tensor
from repro.utils import set_seed
from tests.oracles import SGDLoop


def small_model(seed=0):
    set_seed(seed)
    return MLP(12, [10, 8], 4)


def conv_model(seed=0):
    set_seed(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4),
    )


def fill_grads(model, seed):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.data.shape).astype(np.float32)


class TestParameterArena:
    def test_views_alias_flat_buffer(self):
        model = small_model()
        params = list(model.parameters())
        before = [p.data.copy() for p in params]
        arena = ParameterArena(params)
        # Values preserved, every p.data now a view of the flat buffer.
        for p, old in zip(params, before):
            assert np.array_equal(p.data, old)
            assert p.data.base is arena.flat
        assert arena.intact()
        # Mutating the flat buffer mutates the parameters (no scatter).
        arena.flat += 1.0
        for p, old in zip(params, before):
            assert np.allclose(p.data, old + 1.0)

    def test_forward_backward_through_views(self):
        model = small_model()
        ParameterArena(list(model.parameters()))
        x = Tensor(np.random.default_rng(0).standard_normal((5, 12)).astype(np.float32))
        loss = model(x).sum()
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_grad_chunk(self):
        """Any chunk of the packed gradient, copied from the ``p.grad``
        arrays: zeros for a missing gradient, a non-contiguous one read in
        C order, chunks that start and end inside segments."""
        model = small_model()
        params = list(model.parameters())
        arena = ParameterArena(params)
        fill_grads(model, 1)
        params[0].grad = None  # missing gradient -> zeros
        params[2].grad = np.asfortranarray(params[2].grad)
        want = np.concatenate(
            [np.zeros(arena.sizes[0], np.float32)] + [p.grad.reshape(-1) for p in params[1:]]
        )
        for chunk in (1, 7, arena.size):
            for start in range(0, arena.size, chunk):
                out = np.full(min(chunk, arena.size - start), np.nan, np.float32)
                assert arena.grad_chunk(out, start) is out
                assert out.tobytes() == want[start : start + out.size].tobytes()
        with pytest.raises(ValueError, match="outside"):
            arena.grad_chunk(np.empty(2, np.float32), arena.size - 1)

    def test_intact_detects_rebinding(self):
        model = small_model()
        params = list(model.parameters())
        arena = ParameterArena(params)
        assert arena.intact()
        params[2].data = params[2].data.copy()
        assert not arena.intact()

    def test_load_state_dict_preserves_views(self):
        model = small_model()
        state = {k: v + 3.0 for k, v in model.state_dict().items()}
        arena = ParameterArena(list(model.parameters()))
        model.load_state_dict(state)
        assert arena.intact()
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, state[name])
            assert p.data.base is arena.flat


class TestFusedSGD:
    @pytest.mark.parametrize(
        "momentum,weight_decay,nesterov",
        [(0.0, 0.0, False), (0.9, 0.0, False), (0.9, 1e-4, False), (0.9, 1e-4, True)],
    )
    def test_bit_exact_vs_per_tensor_loop(self, momentum, weight_decay, nesterov):
        m1, m2 = small_model(7), small_model(7)
        # Exempt one parameter from decay, as BatchNorm scales are.
        list(m1.parameters())[1].no_decay = True
        list(m2.parameters())[1].no_decay = True
        o1 = SGDLoop(m1.parameters(), lr=0.05, momentum=momentum,
                     weight_decay=weight_decay, nesterov=nesterov)
        o2 = SGD(m2.parameters(), lr=0.05, momentum=momentum,
                 weight_decay=weight_decay, nesterov=nesterov)
        for step in range(5):
            fill_grads(m1, 100 + step)
            fill_grads(m2, 100 + step)
            o1.step()
            o2.step()
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert np.array_equal(a.data, b.data)

    def test_bit_exact_on_real_backward_grads(self):
        """Gradcheck-style: gradients from a real backward pass through the
        arena views drive the fused update to bit-identical weights."""
        m1, m2 = conv_model(3), conv_model(3)
        o1 = SGDLoop(m1.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
        o2 = SGD(m2.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(5)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(3):
            x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
            y = rng.integers(0, 4, size=4)
            for model, opt in ((m1, o1), (m2, o2)):
                opt.zero_grad()
                loss = loss_fn(model(Tensor(x)), y)
                loss.backward()
                opt.step()
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert np.array_equal(a.data, b.data)

    def test_step_flat_matches_step(self):
        m1, m2 = small_model(11), small_model(11)
        o1 = SGD(m1.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        o2 = SGD(m2.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for step in range(3):
            fill_grads(m1, 50 + step)
            fill_grads(m2, 50 + step)
            flat = np.concatenate([p.grad.reshape(-1) for p in m2.parameters()])
            o1.step()
            o2.step_flat(flat)
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert np.array_equal(a.data, b.data)

    def test_rebuild_after_external_rebind(self):
        """Rebinding p.data invalidates the arena; the next
        step rebuilds it and still matches the per-tensor loop (modulo the
        momentum reset both sides share via fresh optimizers)."""
        m1, m2 = small_model(13), small_model(13)
        o2 = SGD(m2.parameters(), lr=0.05)
        fill_grads(m2, 1)
        o2.step()
        first_arena = o2._arena
        # External rebind breaks the aliasing...
        p = o2.params[0]
        p.data = p.data.copy()
        fill_grads(m2, 2)
        o2.step()  # ...and the step transparently rebuilds.
        assert o2._arena is not first_arena
        assert o2._arena.intact()
        # Same two steps through the reference loop.
        o1 = SGDLoop(m1.parameters(), lr=0.05)
        fill_grads(m1, 1)
        o1.step()
        fill_grads(m1, 2)
        o1.step()
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_rebind_drops_arena(self):
        m1, m2 = small_model(17), small_model(19)
        opt = SGD(m1.parameters(), lr=0.05, momentum=0.9)
        fill_grads(m1, 1)
        opt.step()
        opt.rebind(m2.parameters())
        assert opt._arena is None
        fill_grads(m2, 2)
        opt.step()  # works against the new parameter list
        assert opt._arena.intact()

    def test_zero_grad_then_step_is_noop_without_decay(self):
        model = small_model(23)
        opt = SGD(model.parameters(), lr=0.05)
        opt.zero_grad()
        before = [p.data.copy() for p in model.parameters()]
        opt.step()  # all grads None -> zero chunks -> no movement
        for p, old in zip(model.parameters(), before):
            assert np.array_equal(p.data, old)

    def test_state_dict_round_trip_keeps_arena(self):
        model = small_model(29)
        opt = SGD(model.parameters(), lr=0.05)
        fill_grads(model, 1)
        opt.step()
        arena = opt._arena
        state = model.state_dict()
        model.load_state_dict(state)
        assert arena.intact()
        fill_grads(model, 2)
        opt.step()
        assert opt._arena is arena  # no rebuild needed
