"""ATOMO compressor and checkpoint serialization."""

import numpy as np
import pytest

from repro.compression import Atomo
from repro.compression.atomo import atomo_probabilities
from repro.models import MLP
from repro.optim import LAMB, SGD, Adam
from repro.tensor import Tensor
from repro.utils import load_checkpoint, save_checkpoint


class TestAtomoProbabilities:
    def test_sum_equals_budget(self, rng):
        s = np.sort(np.abs(rng.standard_normal(10)))[::-1]
        p = atomo_probabilities(s, 3.0)
        assert p.sum() == pytest.approx(3.0, rel=1e-6)

    def test_probabilities_in_unit_interval(self, rng):
        s = np.abs(rng.standard_normal(8)) * 10
        p = atomo_probabilities(s, 4.0)
        assert np.all(p >= 0) and np.all(p <= 1.0 + 1e-12)

    def test_dominant_atom_clipped_to_one(self):
        s = np.array([100.0, 1.0, 1.0, 1.0])
        p = atomo_probabilities(s, 2.0)
        assert p[0] == pytest.approx(1.0)
        assert p.sum() == pytest.approx(2.0, rel=1e-6)

    def test_budget_exceeding_count_keeps_all(self):
        s = np.array([3.0, 2.0, 1.0])
        p = atomo_probabilities(s, 10.0)
        assert np.allclose(p, 1.0)

    def test_zero_spectrum(self):
        assert np.allclose(atomo_probabilities(np.zeros(5), 2.0), 0.0)

    def test_monotone_in_sigma(self, rng):
        s = np.array([5.0, 3.0, 1.0, 0.5])
        p = atomo_probabilities(s, 2.0)
        assert np.all(np.diff(p) <= 1e-12)


class TestAtomoCompressor:
    def test_unbiased(self, rng):
        comp = Atomo(1, budget=3)
        g = [rng.standard_normal((10, 8)).astype(np.float32)]
        est = np.mean(
            [comp.decode_aggregate([comp.encode(0, g)])[0] for _ in range(400)],
            axis=0,
        )
        err = np.linalg.norm(est - g[0]) / np.linalg.norm(g[0])
        assert err < 0.25

    def test_exact_when_budget_covers_rank(self, rng):
        comp = Atomo(1, budget=100)
        g = [rng.standard_normal((6, 4)).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], g[0], atol=1e-4)

    def test_vectors_sent_raw(self, rng):
        comp = Atomo(1, budget=2)
        g = [rng.standard_normal(7).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], g[0], atol=1e-6)

    def test_conv_shapes_restored(self, rng):
        comp = Atomo(1, budget=2)
        g = [rng.standard_normal((8, 4, 3, 3)).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert agg[0].shape == (8, 4, 3, 3)

    def test_wire_bytes_scale_with_kept_atoms(self, rng):
        small = Atomo(1, budget=1)
        big = Atomo(1, budget=8)
        g = [rng.standard_normal((32, 32)).astype(np.float32)]
        b_small = np.mean([small.encode(0, g).nbytes for _ in range(20)])
        b_big = np.mean([big.encode(0, g).nbytes for _ in range(20)])
        assert b_big > b_small

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            Atomo(1, budget=0)

    def test_not_allreduce_compatible(self):
        assert not Atomo(1).allreduce_compatible

    def test_per_step_svd_cost_vs_pufferfish_one_time(self, rng):
        """The paper's motivating comparison: ATOMO pays an SVD per batch;
        Pufferfish pays one SVD total.  Over N steps ATOMO's cumulative
        factorization work exceeds the one-time conversion."""
        import time

        from repro.core import FactorizationConfig, build_hybrid

        model = MLP(64, [128, 128], 10)
        grads = [p.data.copy() for p in model.parameters()]
        comp = Atomo(1, budget=2)

        t0 = time.perf_counter()
        for _ in range(20):  # 20 "batches"
            comp.encode(0, grads)
        atomo_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        build_hybrid(model, FactorizationConfig(rank_ratio=0.25))
        pufferfish_seconds = time.perf_counter() - t0
        assert atomo_seconds > pufferfish_seconds


class TestSerialization:
    def test_model_roundtrip(self, tmp_path, rng):
        m1 = MLP(8, [16], 4)
        save_checkpoint(tmp_path / "m.npz", m1)
        m2 = MLP(8, [16], 4)
        load_checkpoint(tmp_path / "m.npz", m2)
        x = Tensor(rng.standard_normal((3, 8)))
        assert np.allclose(m1(x).data, m2(x).data)

    @staticmethod
    def _assert_same_state(s1: dict, s2: dict):
        assert set(s1) == set(s2)
        for key, value in s1.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, s2[key]), key
            else:
                assert value == s2[key], key

    def test_checkpoint_restores_optimizer_momentum(self, tmp_path, rng):
        m1 = MLP(6, [8], 3)
        opt1 = SGD(m1.parameters(), lr=0.1, momentum=0.9)
        x = Tensor(rng.standard_normal((4, 6)))
        (m1(x) ** 2).sum().backward()
        opt1.step()  # creates the momentum buffer
        save_checkpoint(tmp_path / "c.npz", m1, opt1, epoch=7)

        m2 = MLP(6, [8], 3)
        opt2 = SGD(m2.parameters(), lr=0.5, momentum=0.9)
        meta = load_checkpoint(tmp_path / "c.npz", m2, opt2)
        assert meta["epoch"] == 7
        assert opt2.lr == pytest.approx(0.1)
        assert float(np.abs(opt1.state_dict()["momentum_buf"]).max()) > 0
        self._assert_same_state(opt1.state_dict(), opt2.state_dict())

    def test_checkpoint_restores_adam_state(self, tmp_path, rng):
        m1 = MLP(6, [8], 3)
        opt1 = Adam(m1.parameters(), lr=1e-3)
        x = Tensor(rng.standard_normal((4, 6)))
        (m1(x) ** 2).sum().backward()
        opt1.step()
        save_checkpoint(tmp_path / "c.npz", m1, opt1)

        m2 = MLP(6, [8], 3)
        opt2 = Adam(m2.parameters(), lr=1e-3)
        load_checkpoint(tmp_path / "c.npz", m2, opt2)
        assert opt2.state_dict()["step"] == 1
        assert float(np.abs(opt1.state_dict()["v"]).max()) > 0
        self._assert_same_state(opt1.state_dict(), opt2.state_dict())

    @pytest.mark.parametrize(
        "other",
        [
            lambda: Adam(MLP(6, [8], 3).parameters(), lr=1e-3),  # other keys
            lambda: SGD(MLP(6, [9], 3).parameters(), lr=0.1, momentum=0.9),  # other size
        ],
        ids=["other-algorithm", "other-arena-size"],
    )
    def test_an_optimizer_section_that_does_not_fit_loads_nothing(self, tmp_path, rng, other):
        m1 = MLP(6, [8], 3)
        opt1 = SGD(m1.parameters(), lr=0.1, momentum=0.9)
        (m1(Tensor(rng.standard_normal((4, 6)))) ** 2).sum().backward()
        opt1.step()
        save_checkpoint(tmp_path / "c.npz", m1, opt1)

        opt2 = other()
        m2 = MLP(6, [8], 3)
        lr_before, before_state = opt2.lr, opt2.state_dict()
        before_model = {k: v.copy() for k, v in m2.state_dict().items()}
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "c.npz", m2, opt2)
        assert opt2.lr == lr_before
        self._assert_same_state(before_state, opt2.state_dict())
        for key, value in m2.state_dict().items():
            assert np.array_equal(value, before_model[key])

    @pytest.mark.parametrize(
        "opt_cls, kwargs",
        [
            (SGD, {"lr": 0.1, "momentum": 0.9}),
            (Adam, {"lr": 1e-2}),
            (LAMB, {"lr": 1e-2}),
        ],
        ids=["SGD", "Adam", "LAMB"],
    )
    def test_resumed_training_matches_uninterrupted(self, tmp_path, rng, opt_cls, kwargs):
        """Save/load mid-training must not change the trajectory."""
        from repro.utils import set_seed

        def fresh():
            set_seed(77)
            m = MLP(6, [8], 3)
            return m, opt_cls(m.parameters(), **kwargs)

        x = rng.standard_normal((8, 6)).astype(np.float32)

        def step(m, opt):
            opt.zero_grad()
            (m(Tensor(x)) ** 2).sum().backward()
            opt.step()

        # Uninterrupted: 4 steps.
        m_ref, opt_ref = fresh()
        for _ in range(4):
            step(m_ref, opt_ref)

        # Interrupted after 2 steps.
        m_a, opt_a = fresh()
        step(m_a, opt_a)
        step(m_a, opt_a)
        save_checkpoint(tmp_path / "mid.npz", m_a, opt_a)
        m_b, opt_b = fresh()
        load_checkpoint(tmp_path / "mid.npz", m_b, opt_b)
        step(m_b, opt_b)
        step(m_b, opt_b)

        for (_, p_ref), (_, p_b) in zip(m_ref.named_parameters(), m_b.named_parameters()):
            assert np.array_equal(p_ref.data, p_b.data)

    def test_checkpoint_works_on_hybrid_models(self, tmp_path, rng):
        from repro.core import FactorizationConfig, build_hybrid

        model = MLP(8, [32, 32], 4)
        hybrid, _ = build_hybrid(model, FactorizationConfig(rank_ratio=0.25))
        save_checkpoint(tmp_path / "h.npz", hybrid)
        hybrid2, _ = build_hybrid(model, FactorizationConfig(rank_ratio=0.25))
        load_checkpoint(tmp_path / "h.npz", hybrid2)
        x = Tensor(rng.standard_normal((2, 8)))
        assert np.allclose(hybrid(x).data, hybrid2(x).data)

    def test_strict_load_rejects_wrong_architecture(self, tmp_path):
        save_checkpoint(tmp_path / "m.npz", MLP(8, [16], 4))
        wrong = MLP(8, [32], 4)
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(tmp_path / "m.npz", wrong)
