"""BatchNorm folded into the conv before it (``repro.core.fold_batchnorm``).

The served model computes the trained model's eval function with every
declared (conv, BN) pair fused: not byte for byte (the fold rounds the kernel
once more), but within the bound :data:`FOLD_RTOL` states, with the same
state dict, and it refuses to train or to load weights.  Its own outputs are
pinned per backend like :mod:`tests.test_forward_frozen`'s table.

Regenerate the digests on purpose with
``PYTHONPATH=src python -m tests.test_fold_batchnorm``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import (
    FoldedModelError,
    LowRankConv2d,
    build_hybrid,
    fold_batchnorm,
    folded_pairs,
)
from repro.data import make_cifar_like
from repro.models import (
    resnet18,
    resnet18_hybrid_config,
    resnet50,
    vgg11,
    vgg11_hybrid_config,
)
from repro.nn import BatchNorm2d, Conv2d, CrossEntropyLoss
from repro.optim import SGD
from repro.tensor import Tensor, backend, no_grad
from repro.utils import canonical_digest, set_seed

from .test_forward_frozen import PLATFORM_CANARY, _resnet18, _sha, platform_canary

# |folded - unfolded| <= FOLD_RTOL * max|unfolded logit|, per model and backend:
# ~84 float32 epsilons.  The gap measured 1.1e-7 (VGG-11) and 1.5e-7
# (ResNet-18) of the largest logit below, on both backends.
FOLD_RTOL = 1e-5
TRAIN_STEPS = 8  # BN momentum 0.1: running stats ~57 % of the way to the data's


def _hybrid(name: str):
    set_seed(0)
    if name == "vgg11":
        return build_hybrid(vgg11(num_classes=10, width_mult=0.25), vgg11_hybrid_config())[0]
    model = resnet18(num_classes=10, width_mult=0.25)
    return build_hybrid(model, resnet18_hybrid_config(model))[0]


@functools.lru_cache(maxsize=None)
def _trained(name: str, be: str):
    """A hybrid model after a few SGD steps (real running statistics) and
    32 held-out images."""
    model = _hybrid(name)
    data = make_cifar_like(16 * TRAIN_STEPS + 32, rng=np.random.default_rng(1))
    opt = SGD(list(model.parameters()), lr=0.05, momentum=0.9)
    loss_fn = CrossEntropyLoss()
    with backend.use(be):
        for i in range(TRAIN_STEPS):
            rows = slice(16 * i, 16 * (i + 1))
            loss = loss_fn(model(Tensor(data.images[rows])), data.labels[rows])
            model.zero_grad()
            loss.backward()
            opt.step()
    return model.eval(), data.images[-32:]


def _logits(model, x: np.ndarray, be: str) -> np.ndarray:
    with backend.use(be), no_grad():
        return model(Tensor(x)).data


# -- served outputs, pinned -------------------------------------------------

BATCHES = (1, 8)


def run_folded(be: str, batch: int) -> str:
    """The folded factorized ResNet-18 (stats moved off (0, 1) by one
    train-mode forward, as in the frozen-forward table) on one batch."""
    set_seed(0)
    model = _resnet18()
    data = np.random.default_rng(7)
    with backend.use(be):
        model(Tensor(data.standard_normal((4, 3, 32, 32)).astype(np.float32)))
    folded = fold_batchnorm(model)
    x = data.standard_normal((batch, 3, 32, 32)).astype(np.float32)
    return canonical_digest(_sha(_logits(folded, x, be)))


# fmt: off
PINNED = {
    "fast-b1": "d4dd4857910bcff1",
    "fast-b8": "7e6bcf2202710857",
    "numpy-b1": "57b2718e6d9f0bd4",
    "numpy-b8": "7e6bcf2202710857",
}
# fmt: on


@pytest.mark.parametrize("be", ("numpy", "fast"))
@pytest.mark.parametrize("batch", BATCHES)
def test_folded_outputs_pinned(be, batch):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(f"digests recorded on different BLAS kernels ({platform_canary()})")
    assert run_folded(be, batch) == PINNED[f"{be}-b{batch}"]


# -- the contract -----------------------------------------------------------


@pytest.mark.parametrize("be", ("numpy", "fast"))
@pytest.mark.parametrize("name", ("vgg11", "resnet18"))
def test_folded_logits_within_bound(name, be):
    model, x = _trained(name, be)
    folded = fold_batchnorm(model)
    want, got = _logits(model, x, be), _logits(folded, x, be)
    assert np.abs(got - want).max() <= FOLD_RTOL * np.abs(want).max()
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def test_state_dict_byte_identical_and_original_untouched():
    model, x = _trained("resnet18", "numpy")
    before = _logits(model, x, "numpy")
    folded = fold_batchnorm(model)
    want, have = model.state_dict(), folded.state_dict()
    assert list(want) == list(have)
    assert all(np.array_equal(want[k], have[k]) for k in want)
    # The trained model still computes, trains and loads unfolded.
    assert not any(m.folded for m in model.modules())
    assert np.array_equal(_logits(model, x, "numpy"), before)
    model.load_state_dict(want)
    model.train()
    model.eval()


def test_every_declared_pair_folds():
    model = _hybrid("resnet18")
    folded = fold_batchnorm(model)
    # 6 full-rank convs (stem, layer1.0 x2, 3 downsamples) + 14 factorized.
    assert folded_pairs(folded) == 20
    assert all(bn.absorbed for bn in folded.modules() if isinstance(bn, BatchNorm2d))
    for layer in folded.modules():
        if isinstance(layer, LowRankConv2d):
            # The BN lands in V (the 1x1 factor); U is untouched.
            assert layer.conv_v.folded_weight is not None
            assert layer.conv_u.folded_weight is None
    assert folded_pairs(fold_batchnorm(_hybrid("vgg11"))) == 8
    # Bottleneck: stem + 16 blocks x 3 + 4 downsample projections.
    assert folded_pairs(fold_batchnorm(resnet50(num_classes=4, width_mult=0.125))) == 53


def test_folded_conv_keeps_its_class_and_parameters():
    folded = fold_batchnorm(_hybrid("vgg11"))
    conv = folded.features[0]
    assert type(conv) is Conv2d and conv.bias is None
    assert conv.folded_weight.data.dtype == np.float32
    assert not conv.folded_weight.requires_grad
    assert conv.folded_bias.data.shape == (conv.out_channels,)


def test_folded_model_refuses_train_and_load():
    model = _hybrid("vgg11")
    folded = fold_batchnorm(model)
    state = folded.state_dict()
    with pytest.raises(FoldedModelError, match="train"):
        folded.train()
    with pytest.raises(FoldedModelError, match="train"):
        folded.features.train(True)
    with pytest.raises(FoldedModelError, match="load_state_dict"):
        folded.load_state_dict(state)
    # Refused without a side effect: still eval, still the same weights.
    assert not any(m.training for m in folded.modules())
    folded.eval()
    assert all(np.array_equal(state[k], v) for k, v in folded.state_dict().items())


if __name__ == "__main__":
    print("PINNED = {")
    for be in ("fast", "numpy"):
        for batch in BATCHES:
            print(f'    "{be}-b{batch}": "{run_folded(be, batch)}",')
    print("}")
