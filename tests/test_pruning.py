"""Pruning baselines: LTH iterative magnitude pruning and Early-Bird
structured channel pruning."""

import numpy as np
import pytest

from repro import nn
from repro.models import resnet18, resnet50, vgg11
from repro.nn import BatchNorm2d
from repro.pruning import (
    EarlyBirdDetector,
    LTHRunner,
    apply_masks,
    bn_channel_scores,
    bn_l1_penalty,
    channel_mask,
    global_magnitude_mask,
    mask_distance,
    prune_resnet,
    prune_vgg,
    resnet_internal_bns,
    sparsity,
)
from repro.pruning.lth import prunable_weights
from repro.tensor import Tensor


def randomize_bn(model, rng):
    for mod in model.modules():
        if isinstance(mod, BatchNorm2d):
            scales = np.abs(rng.standard_normal(mod.num_features)) + 0.01
            mod.weight.data = scales.astype(np.float32)


class TestMagnitudeMasks:
    def test_prunable_weights_cover_conv_and_linear(self):
        m = vgg11(num_classes=4, width_mult=0.25)
        names = [n for n, _ in prunable_weights(m)]
        assert any("features" in n for n in names)
        assert any("classifier" in n for n in names)
        assert all(n.endswith(".weight") for n in names)

    def test_first_round_sparsity(self):
        m = vgg11(num_classes=4, width_mult=0.25)
        masks = global_magnitude_mask(m, 0.2)
        assert sparsity(masks) == pytest.approx(0.2, abs=0.01)

    def test_iterative_compounds(self):
        m = vgg11(num_classes=4, width_mult=0.25)
        masks = global_magnitude_mask(m, 0.2)
        masks = global_magnitude_mask(m, 0.2, masks)
        assert sparsity(masks) == pytest.approx(0.36, abs=0.01)

    def test_prunes_smallest_weights(self, rng):
        m = nn.Sequential(nn.Linear(10, 10, bias=False))
        m.get_submodule("0").weight.data = np.arange(100, dtype=np.float32).reshape(10, 10) + 1
        masks = global_magnitude_mask(m, 0.5)
        mask = masks["0.weight"]
        assert not mask.reshape(-1)[0]  # smallest pruned
        assert mask.reshape(-1)[-1]  # largest kept

    def test_apply_masks_zeroes_weights_and_grads(self, rng):
        m = nn.Sequential(nn.Linear(8, 8, bias=False))
        (m(Tensor(rng.standard_normal((2, 8)))) ** 2).sum().backward()
        masks = global_magnitude_mask(m, 0.5)
        apply_masks(m, masks)
        w = m.get_submodule("0").weight
        assert np.all(w.data[~masks["0.weight"]] == 0)
        assert np.all(w.grad[~masks["0.weight"]] == 0)

    def test_zero_fraction_is_noop(self):
        m = vgg11(num_classes=4, width_mult=0.25)
        masks = global_magnitude_mask(m, 0.0)
        assert sparsity(masks) == 0.0


class TestLTHRunner:
    def test_sparsity_schedule(self):
        runner = LTHRunner(
            lambda: vgg11(num_classes=4, width_mult=0.25),
            lambda model, post_step: 0.5,
            prune_fraction=0.2,
        )
        hist = runner.run(4)
        expected = [1 - 0.8 ** (i + 1) for i in range(4)]
        for h, e in zip(hist, expected):
            assert h.sparsity == pytest.approx(e, abs=0.01)

    def test_rewind_restores_initial_values(self):
        captured = {}

        def factory():
            m = vgg11(num_classes=4, width_mult=0.25)
            captured["theta0"] = m.state_dict()
            return m

        def train(model, post_step):
            # Simulate training drift.
            for p in model.parameters():
                p.data += 1.0
            post_step(model)
            return 0.0

        runner = LTHRunner(factory, train, prune_fraction=0.2)
        runner.run(2)
        final = runner.final_model.state_dict()
        masks = runner.final_masks
        for name, mask in masks.items():
            alive = final[name][mask]
            orig = captured["theta0"][name][mask]
            assert np.allclose(alive, orig)

    def test_cumulative_time_monotonic(self):
        runner = LTHRunner(
            lambda: vgg11(num_classes=4, width_mult=0.25),
            lambda m, ps: 0.0,
        )
        hist = runner.run(3)
        secs = [r.cumulative_seconds for r in hist]
        assert secs == sorted(secs)

    def test_remaining_params_decrease(self):
        runner = LTHRunner(
            lambda: vgg11(num_classes=4, width_mult=0.25),
            lambda m, ps: 0.0,
        )
        hist = runner.run(3)
        assert hist[0].remaining_params > hist[1].remaining_params > hist[2].remaining_params


class TestChannelMasks:
    def test_global_threshold(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        randomize_bn(m, rng)
        masks = channel_mask(bn_channel_scores(m), 0.3)
        total = sum(x.size for x in masks.values())
        kept = sum(int(x.sum()) for x in masks.values())
        assert kept / total == pytest.approx(0.7, abs=0.05)

    def test_no_layer_fully_pruned(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        for mod in m.modules():
            if isinstance(mod, BatchNorm2d):
                mod.weight.data[:] = 1e-6  # everything below threshold
        m.get_submodule("features.0").weight.data[:] = 1.0
        masks = channel_mask(bn_channel_scores(m), 0.9)
        assert all(mask.any() for mask in masks.values())

    def test_mask_distance_zero_for_identical(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        randomize_bn(m, rng)
        a = channel_mask(bn_channel_scores(m), 0.3)
        assert mask_distance(a, a) == 0.0

    def test_mask_distance_detects_changes(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        randomize_bn(m, rng)
        a = channel_mask(bn_channel_scores(m), 0.3)
        randomize_bn(m, rng)
        b = channel_mask(bn_channel_scores(m), 0.3)
        assert mask_distance(a, b) > 0


class TestEarlyBirdDetector:
    def test_triggers_on_stable_masks(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        randomize_bn(m, rng)
        det = EarlyBirdDetector(0.3, threshold=0.1, patience=2)
        found = [det.update(m, ep) for ep in range(4)]
        assert det.found_at is not None
        assert found[-1]

    def test_does_not_trigger_while_masks_move(self, rng):
        m = vgg11(num_classes=4, width_mult=0.25)
        det = EarlyBirdDetector(0.3, threshold=0.01, patience=3)
        for ep in range(4):
            randomize_bn(m, rng)  # masks churn every epoch
            assert not det.update(m, ep)

    def test_bn_l1_penalty_shrinks_gammas(self, rng):
        from repro.optim import SGD

        m = nn.Sequential(nn.Conv2d(3, 8, 3), nn.BatchNorm2d(8))
        bn = m.get_submodule("1")
        opt = SGD(list(m.parameters()), lr=0.1)
        before = np.abs(bn.weight.data).sum()
        for _ in range(5):
            opt.zero_grad()
            bn_l1_penalty(m, coeff=0.1).backward()
            opt.step()
        assert np.abs(bn.weight.data).sum() < before

    @pytest.mark.parametrize("coeff", [1e-3, 0.1])
    def test_bn_l1_penalty_grad_is_coeff_sign_gamma_to_the_byte(self, rng, coeff):
        """On top of a loss gradient, the term's γ gradient equals adding
        ``coeff * sign(γ)`` after backward (network slimming's subgradient
        step) byte for byte; every other gradient is untouched."""
        m = nn.Sequential(nn.Conv2d(3, 8, 3), nn.BatchNorm2d(8), nn.ReLU(),
                          nn.Conv2d(8, 4, 3), nn.BatchNorm2d(4))
        for mod in m.modules():
            if isinstance(mod, BatchNorm2d):  # γ of both signs
                mod.weight.data = rng.standard_normal(mod.num_features).astype(np.float32)
        x = Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        w = rng.standard_normal((4, 4, 4, 4)).astype(np.float32)

        def grads(penalty: bool) -> dict:
            m.zero_grad()
            loss = (m(x) * w).sum()
            (loss + bn_l1_penalty(m, coeff) if penalty else loss).backward()
            return {k: p.grad.copy() for k, p in m.named_parameters()}

        expected = grads(penalty=False)
        for path, mod in m.named_modules():
            if isinstance(mod, BatchNorm2d):
                expected[f"{path}.weight"] += coeff * np.sign(mod.weight.data)
        got = grads(penalty=True)
        assert got.keys() == expected.keys()
        for k in expected:
            assert got[k].dtype == expected[k].dtype, k
            assert got[k].tobytes() == expected[k].tobytes(), k


class TestStructuralPruning:
    def test_vgg_slim_smaller_and_functional(self, rng):
        v = vgg11(num_classes=4, width_mult=0.5)
        randomize_bn(v, rng)
        masks = channel_mask(bn_channel_scores(v), 0.3)
        slim = prune_vgg(v, masks)
        slim.eval()
        out = slim(Tensor(rng.standard_normal((2, 3, 32, 32))))
        assert out.shape == (2, 4)
        assert slim.num_parameters() < v.num_parameters()

    def test_vgg_slim_preserves_function_when_nothing_pruned(self, rng):
        v = vgg11(num_classes=4, width_mult=0.25)
        masks = {p: np.ones_like(s, dtype=bool) for p, s in bn_channel_scores(v).items()}
        slim = prune_vgg(v, masks)
        v.eval(); slim.eval()
        x = Tensor(rng.standard_normal((2, 3, 32, 32)))
        assert np.allclose(v(x).data, slim(x).data, atol=1e-4)

    def test_resnet18_slim(self, rng):
        r = resnet18(num_classes=4, width_mult=0.25)
        randomize_bn(r, rng)
        masks = channel_mask(bn_channel_scores(r, resnet_internal_bns(r)), 0.4)
        slim = prune_resnet(r, masks)
        slim.eval()
        out = slim(Tensor(rng.standard_normal((2, 3, 32, 32))))
        assert out.shape == (2, 4)
        assert slim.num_parameters() < r.num_parameters()

    def test_resnet50_slim(self, rng):
        r = resnet50(num_classes=4, width_mult=0.125, small_input=True)
        randomize_bn(r, rng)
        masks = channel_mask(bn_channel_scores(r, resnet_internal_bns(r)), 0.3)
        slim = prune_resnet(r, masks)
        slim.eval()
        out = slim(Tensor(rng.standard_normal((1, 3, 32, 32))))
        assert out.shape == (1, 4)
        assert slim.num_parameters() < r.num_parameters()

    def test_resnet_slim_output_widths_unchanged(self, rng):
        # Residual joins require stage output widths to be preserved.
        r = resnet18(num_classes=4, width_mult=0.25)
        randomize_bn(r, rng)
        masks = channel_mask(bn_channel_scores(r, resnet_internal_bns(r)), 0.4)
        slim = prune_resnet(r, masks)
        assert slim.fc.in_features == r.fc.in_features

    def test_original_model_untouched_by_resnet_prune(self, rng):
        r = resnet18(num_classes=4, width_mult=0.25)
        randomize_bn(r, rng)
        before = r.num_parameters()
        masks = channel_mask(bn_channel_scores(r, resnet_internal_bns(r)), 0.4)
        prune_resnet(r, masks)
        assert r.num_parameters() == before
