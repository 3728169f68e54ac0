"""Characterization of one training step's gradients: one pinned digest per run.

Each row runs one train-mode forward, the loss and ``backward()`` of a hybrid
model from fixed parameters and a fixed batch, and hashes every parameter's
``.grad`` bytes (by parameter name).  A change to how the autograd engine
records, keeps or walks its graph that keeps these digests computes the same
gradients to the bit on both backends.  The synthetic image sets the rows'
data come from are pinned beside them: their bytes are what ``train_conv``
trains on.

Bytes depend on the BLAS kernels NumPy dispatches to, so the table binds only
where ``test_forward_frozen``'s ``PLATFORM_CANARY`` does.

Regenerate on purpose with
``PYTHONPATH=src python -m tests.test_step_grads_pinned``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_hybrid
from repro.data import make_cifar_like, make_imagenet_like, make_translation_dataset
from repro.models import (
    Seq2SeqTransformer,
    transformer_hybrid_config,
    vgg19,
    vgg19_hybrid_config,
)
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor, backend
from repro.utils import canonical_digest, set_seed

from .test_forward_frozen import PLATFORM_CANARY, _sha, platform_canary

BATCH = 8
VOCAB = 50


def _vgg19_step():
    set_seed(0)
    model = build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())[0]
    ds = make_cifar_like(n=BATCH, rng=np.random.default_rng(3))
    loss = CrossEntropyLoss()(model(Tensor(ds.images)), ds.labels)
    return model, loss


def _transformer_step():
    set_seed(0)
    vanilla = Seq2SeqTransformer(
        vocab_size=VOCAB, d_model=128, n_heads=4, num_layers=2, dropout=0.0, max_len=16
    )
    model = build_hybrid(vanilla, transformer_hybrid_config())[0]
    ds = make_translation_dataset(
        n=BATCH, vocab_size=VOCAB, min_len=8, max_len=12, rng=np.random.default_rng(3)
    )
    out = model(ds.src, ds.tgt[:, :-1])
    loss = CrossEntropyLoss(ignore_index=0)(out.reshape(-1, VOCAB), ds.tgt[:, 1:].reshape(-1))
    return model, loss


STEPS = {"vgg19-hybrid": _vgg19_step, "transformer-hybrid": _transformer_step}
CONFIGS = {f"{model}-{be}": (model, be) for model in STEPS for be in ("numpy", "fast")}
DATASETS = {
    "cifar_like-n640": lambda: make_cifar_like(n=640, rng=np.random.default_rng(0)),
    "imagenet_like-n64": lambda: make_imagenet_like(n=64, rng=np.random.default_rng(0)),
}


def run_config(config) -> dict:
    model_name, be = config
    with backend.use(be):
        model, loss = STEPS[model_name]()
        loss.backward()
    return {
        "loss": _sha(loss.data),
        "grads": {name: _sha(p.grad) for name, p in model.named_parameters()},
    }


def run_dataset(name) -> dict:
    ds = DATASETS[name]()
    return {"images": _sha(ds.images), "labels": _sha(ds.labels)}


# fmt: off
PINNED = {
    "transformer-hybrid-fast": "105bdbe8f5117863",
    "transformer-hybrid-numpy": "105bdbe8f5117863",
    "vgg19-hybrid-fast": "61623e44b87c1406",
    "vgg19-hybrid-numpy": "2ca084a6f84e70a3",
}
PINNED_DATA = {
    "cifar_like-n640": "5ea7ec04fe0868bf",
    "imagenet_like-n64": "9d867f6226e5f57d",
}
# fmt: on


def _require_canary():
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )


def test_tables_cover_the_matrix():
    assert set(PINNED) == set(CONFIGS)
    assert set(PINNED_DATA) == set(DATASETS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_step_gradients_are_pinned(name):
    _require_canary()
    assert canonical_digest(run_config(CONFIGS[name])) == PINNED[name]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_synthetic_images_are_pinned(name):
    _require_canary()
    assert canonical_digest(run_dataset(name)) == PINNED_DATA[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(CONFIGS):
        print(f'    "{name}": "{canonical_digest(run_config(CONFIGS[name]))}",')
    print("}")
    print("PINNED_DATA = {")
    for name in sorted(DATASETS):
        print(f'    "{name}": "{canonical_digest(run_dataset(name))}",')
    print("}")
