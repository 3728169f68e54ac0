"""Optimizers and LR schedules against closed-form single-step updates."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import (
    LAMB,
    SGD,
    Adam,
    LinearWarmup,
    MultiStepLR,
    ReduceLROnPlateau,
    StepDecayAt,
    clip_grad_norm,
)


def param_with_grad(value, grad):
    p = Parameter(np.array(value, dtype=np.float32))
    p.grad = np.array(grad, dtype=np.float32)
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = param_with_grad([1.0], [0.5])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95])

    def test_momentum_accumulates(self):
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # buf = 1 -> p = -1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # buf = 1.9 -> p = -2.9
        assert np.allclose(p.data, [-2.9], atol=1e-6)

    def test_weight_decay_applied(self):
        p = param_with_grad([1.0], [0.0])
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert np.allclose(p.data, [1.0 - 0.1 * 0.1])

    def test_no_decay_flag_respected(self):
        p = param_with_grad([1.0], [0.0])
        p.no_decay = True
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert np.allclose(p.data, [1.0])

    def test_none_grad_skipped(self):
        # A None gradient is a zero gradient: without decay or momentum
        # the parameter stays put.
        p = Parameter(np.array([1.0], dtype=np.float32))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_nesterov_differs_from_heavy_ball(self):
        p1 = param_with_grad([0.0], [1.0])
        p2 = param_with_grad([0.0], [1.0])
        SGD([p1], lr=1.0, momentum=0.9).step()
        SGD([p2], lr=1.0, momentum=0.9, nesterov=True).step()
        assert not np.allclose(p1.data, p2.data)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rebind_drops_state(self):
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()
        q = param_with_grad([0.0], [1.0])
        opt.rebind([q])
        assert opt.params == [q] and opt.state_dict()["momentum_buf"] is None


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction, |Δ| of step 1 ≈ lr regardless of grad scale.
        p = param_with_grad([0.0], [1e-3])
        Adam([p], lr=0.01).step()
        assert np.abs(p.data[0]) == pytest.approx(0.01, rel=1e-2)

    def test_matches_reference_two_steps(self):
        p = param_with_grad([1.0], [0.1])
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        # Reference computation.
        m = v = 0.0
        theta = 1.0
        for t in (1, 2):
            g = 0.1
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh, vh = m / (1 - 0.9**t), v / (1 - 0.999**t)
            theta -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
        opt.step()
        p.grad = np.array([0.1], dtype=np.float32)
        opt.step()
        assert np.allclose(p.data, [theta], atol=1e-5)

    def test_weight_decay(self):
        p = param_with_grad([1.0], [0.0])
        Adam([p], lr=0.1, weight_decay=1.0).step()
        assert p.data[0] < 1.0

    def test_in_place_step_matches_expression_chain(self):
        """The out=-form rewrite is bit-exact vs the naive expression
        chain (same per-element float32 operation order)."""
        rng = np.random.default_rng(0)
        shapes = [(17,), (5, 9), (3, 4, 2)]
        ps = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        ps[1].no_decay = True
        opt = Adam(ps, lr=1e-3, weight_decay=1e-2)
        lr, (b1, b2), eps, wd = opt.lr, opt.betas, opt.eps, opt.weight_decay
        ref = {id(p): (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in ps}
        for t in range(1, 4):
            for p in ps:
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            # Naive chain, exactly as the pre-rewrite loop computed it.
            for p in ps:
                w, m, v = ref[id(p)]
                g = p.grad
                if not getattr(p, "no_decay", False):
                    g = g + wd * w
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                m_hat = m / (1 - b1**t)
                v_hat = v / (1 - b2**t)
                w -= lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for p in ps:
                assert np.array_equal(p.data, ref[id(p)][0])

    def test_step_allocates_no_new_state_after_first(self):
        p = param_with_grad([1.0, 2.0], [0.1, 0.2])
        opt = Adam([p], lr=0.1)
        slabs = ("_m", "_v", "_tmp_chunk", "_grad_chunk")
        opt.step()
        buffers = {k: id(getattr(opt, k)) for k in slabs}
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        opt.step()
        assert buffers == {k: id(getattr(opt, k)) for k in slabs}


class TestLAMB:
    def test_trust_ratio_scales_update(self):
        # Same gradient, weights 10x apart -> updates 10x apart (per-layer
        # update magnitude tracks the weight magnitude).
        p_small = param_with_grad([0.1, 0.1], [1.0, 1.0])
        p_large = param_with_grad([1.0, 1.0], [1.0, 1.0])
        LAMB([p_small], lr=0.1).step()
        LAMB([p_large], lr=0.1).step()
        d_small = float(np.abs(0.1 - p_small.data[0]))
        d_large = float(np.abs(1.0 - p_large.data[0]))
        assert d_large == pytest.approx(10 * d_small, rel=1e-4)

    def test_first_step_magnitude_is_lr_times_weight_norm(self):
        # Step 1: u is elementwise ±1-ish (m̂/√v̂ = sign(g) up to eps), so
        # ‖Δw‖ ≈ lr·‖w‖ regardless of gradient scale.
        p = param_with_grad([3.0, 4.0], [1e-3, 1e-3])
        before = p.data.copy()
        LAMB([p], lr=0.01).step()
        assert np.linalg.norm(p.data - before) == pytest.approx(0.01 * 5.0, rel=1e-2)

    def test_zero_weight_falls_back_to_unit_ratio(self):
        p = param_with_grad([0.0], [1.0])
        LAMB([p], lr=0.01).step()
        # ratio 1.0: plain normalized-Adam step of size ~lr.
        assert np.abs(p.data[0]) == pytest.approx(0.01, rel=1e-2)

    def test_decoupled_weight_decay_enters_update_norm(self):
        p1 = param_with_grad([1.0], [0.0])
        p2 = param_with_grad([1.0], [0.0])
        LAMB([p1], lr=0.1, weight_decay=0.0).step()
        LAMB([p2], lr=0.1, weight_decay=1.0).step()
        assert np.abs(p2.data[0] - 1.0) > np.abs(p1.data[0] - 1.0)

    def test_no_decay_flag_respected(self):
        p = param_with_grad([1.0], [0.0])
        p.no_decay = True
        LAMB([p], lr=0.1, weight_decay=1.0).step()
        assert np.allclose(p.data, [1.0])

    def test_none_grad_skipped(self):
        # A zero gradient gives a zero update (zero moments, unit ratio).
        p = Parameter(np.array([1.0], dtype=np.float32))
        LAMB([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_minimizes_quadratic(self):
        w = Parameter(np.array([5.0], dtype=np.float32))
        # Trust ratio keeps |Δw| ≈ lr·|w| each step, so the residual floors
        # at that scale — small lr, more steps.
        opt = LAMB([w], lr=0.01)
        for _ in range(300):
            opt.zero_grad()
            ((w - 2.0) ** 2).sum().backward()
            opt.step()
        assert abs(w.data[0] - 2.0) < 5e-2


class TestClipGradNorm:
    def test_no_clip_below_bound(self):
        p = param_with_grad([0.0, 0.0], [0.3, 0.4])  # norm 0.5
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.5, rel=1e-5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_clips_to_bound(self):
        p = param_with_grad([0.0, 0.0], [3.0, 4.0])  # norm 5
        clip_grad_norm([p], 1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-3)

    def test_global_norm_across_params(self):
        a = param_with_grad([0.0], [3.0])
        b = param_with_grad([0.0], [4.0])
        norm = clip_grad_norm([a, b], 10.0)
        assert norm == pytest.approx(5.0, rel=1e-5)


class TestSchedulers:
    def _opt(self):
        return SGD([param_with_grad([0.0], [0.0])], lr=0.1)

    def test_multistep(self):
        opt = self._opt()
        sched = MultiStepLR(opt, milestones=[10, 20], gamma=0.1)
        sched.step(5)
        assert opt.lr == pytest.approx(0.1)
        sched.step(10)
        assert opt.lr == pytest.approx(0.01)
        sched.step(25)
        assert opt.lr == pytest.approx(0.001)

    def test_linear_warmup_then_inner(self):
        opt = self._opt()
        inner = MultiStepLR(opt, milestones=[10], gamma=0.1)
        sched = LinearWarmup(opt, start_lr=0.1, peak_lr=1.6, warmup_epochs=5, after=inner)
        sched.step(0)
        assert opt.lr == pytest.approx(0.1 + (1.6 - 0.1) / 5)
        sched.step(4)
        assert opt.lr == pytest.approx(1.6)
        sched.step(12)
        assert opt.lr == pytest.approx(0.16)

    def test_plateau_decays_on_stall(self):
        opt = self._opt()
        sched = ReduceLROnPlateau(opt, factor=0.25, patience=0)
        sched.step(0, metric=1.0)
        assert opt.lr == pytest.approx(0.1)
        sched.step(1, metric=1.0)  # no improvement
        assert opt.lr == pytest.approx(0.025)

    def test_plateau_resets_on_improvement(self):
        opt = self._opt()
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=0)
        sched.step(0, metric=1.0)
        sched.step(1, metric=0.5)
        assert opt.lr == pytest.approx(0.1)

    def test_step_decay_at_fires_once(self):
        opt = self._opt()
        sched = StepDecayAt(opt, {3: 0.5})
        sched.step(2)
        assert opt.lr == pytest.approx(0.1)
        sched.step(3)
        sched.step(4)
        assert opt.lr == pytest.approx(0.05)


class TestOptimizerTraining:
    def test_sgd_minimizes_quadratic(self):

        w = Parameter(np.array([5.0], dtype=np.float32))
        opt = SGD([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        assert abs(w.data[0]) < 1e-3

    def test_adam_minimizes_quadratic(self):
        w = Parameter(np.array([5.0], dtype=np.float32))
        opt = Adam([w], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            ((w - 2.0) ** 2).sum().backward()
            opt.step()
        assert abs(w.data[0] - 2.0) < 1e-2
