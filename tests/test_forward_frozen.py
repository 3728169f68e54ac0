"""Characterization of the conv models' *forward* pass: one pinned digest per run.

The ``fast`` backend's backward kernels are free to reorder their sums — the
parity contract holds them to a tolerance.  Forward is different: an
activation that moves by one ulp can fall on the other side of a ReLU or
change a max-pool's winner, which switches a gradient entry and shows up as a
~1 % gradient error against the ``numpy`` reference (see
``benchmarks/e2e/wl_train.py::_parity_problems``).  So forward rounding is
frozen: every row below hashes the logits and every BatchNorm running
statistic after one forward call, per backend, per mode, per batch size, and
was recorded *before* the conv / max-pool / BatchNorm kernels were rewritten.
A change that moves a digest changed forward arithmetic, not just structure.

Bytes depend on the BLAS kernels NumPy dispatches to, so the table only binds
on the platform it was recorded on: ``PLATFORM_CANARY`` hashes a GEMM that
touches none of the code under test, and the suite skips (loudly) where that
differs.

Regenerate on purpose with
``PYTHONPATH=src python tests/test_forward_frozen.py``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.nn import BatchNorm2d
from repro.tensor import Tensor, backend, no_grad
from repro.utils import canonical_digest, set_seed

BACKENDS = ("numpy", "fast")
MODES = ("train", "eval")
BATCHES = (1, 2, 32)


def _vgg19():
    return build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())[0]


def _resnet18(small_input=True):
    model = resnet18(num_classes=10, width_mult=0.25, small_input=small_input)
    return build_hybrid(model, resnet18_hybrid_config(model))[0]


# name -> (builder, input height/width).  The ImageNet stem (7×7 stride-2 conv,
# overlapping MaxPool2d(3, 2)) is the only place the zoo pools with overlap.
MODELS = {
    "vgg19": (_vgg19, 32),
    "resnet18": (_resnet18, 32),
    "resnet18-imagenet-stem": (functools.partial(_resnet18, small_input=False), 64),
}
CONFIGS = {
    f"{model}-{be}-{mode}-b{batch}": (model, be, mode, batch)
    for model in MODELS
    for be in BACKENDS
    for mode in MODES
    for batch in BATCHES
    if batch <= 2 or model != "resnet18-imagenet-stem"
}
# Batch sizes that are not a multiple of 16 (an sgemm tile): at 20 the hybrid
# VGG-19's 8×8, 4×4 and 2×2 stages gather batch-innermost columns, at 5 its 2×2
# stage would have but for the ragged last tile (``backend._conv_layout``).
# Recorded on the commit before the fast backend learnt a second column order.
CONFIGS.update(
    {
        f"vgg19-fast-{mode}-b{batch}": ("vgg19", "fast", mode, batch)
        for mode in MODES
        for batch in (5, 20)
    }
)


def _sha(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(str((a.shape, a.dtype.str)).encode() + a.tobytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def platform_canary() -> str:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 144)).astype(np.float32)
    b = rng.standard_normal((144, 2048)).astype(np.float32)
    return canonical_digest([_sha(a @ b), _sha(a.mean(axis=1)), _sha(a.var(axis=1))])


def run_config(config) -> dict:
    model_name, be, mode, batch = config
    build, hw = MODELS[model_name]
    set_seed(0)
    model = build()
    data = np.random.default_rng(7)
    x = data.standard_normal((batch, 3, hw, hw)).astype(np.float32)
    with backend.use(be):
        if mode == "train":
            logits = model(Tensor(x)).data
        else:
            # Move the running statistics off their (0, 1) initial values first.
            model(Tensor(data.standard_normal((4, 3, hw, hw)).astype(np.float32)))
            model.eval()
            with no_grad():
                logits = model(Tensor(x)).data
    stats = {}
    for name, mod in model.named_modules():
        if isinstance(mod, BatchNorm2d):
            stats[name] = [_sha(mod.running_mean), _sha(mod.running_var)]
    return {"logits": _sha(logits), "running_stats": stats}


PLATFORM_CANARY = "4f339e1ba0c7bf62"
# fmt: off
PINNED = {
    "resnet18-fast-eval-b1": "af57ed234c6d3bc4",
    "resnet18-fast-eval-b2": "bbbd4f21fe431bdb",
    "resnet18-fast-eval-b32": "a82aff8b0730b960",
    "resnet18-fast-train-b1": "3703075a01563b21",
    "resnet18-fast-train-b2": "157c4e53aeafd85a",
    "resnet18-fast-train-b32": "e336163f4f212823",
    "resnet18-imagenet-stem-fast-eval-b1": "21c2127f2c49a7a4",
    "resnet18-imagenet-stem-fast-eval-b2": "0d41341bc016625d",
    "resnet18-imagenet-stem-fast-train-b1": "345cad9be58afd8e",
    "resnet18-imagenet-stem-fast-train-b2": "a8fad4b43b12a80b",
    "resnet18-imagenet-stem-numpy-eval-b1": "45a2da59d89f1e28",
    "resnet18-imagenet-stem-numpy-eval-b2": "2b1bcfa7192957d4",
    "resnet18-imagenet-stem-numpy-train-b1": "f73f72468b14146b",
    "resnet18-imagenet-stem-numpy-train-b2": "687888c7fd5b2b02",
    "resnet18-numpy-eval-b1": "7c510f6673dcd882",
    "resnet18-numpy-eval-b2": "3f0ea60bfc62251f",
    "resnet18-numpy-eval-b32": "a82aff8b0730b960",
    "resnet18-numpy-train-b1": "3774d20da6dbfc7c",
    "resnet18-numpy-train-b2": "2e691e8d081263b3",
    "resnet18-numpy-train-b32": "e336163f4f212823",
    "vgg19-fast-eval-b1": "6d633b8e6c649a4f",
    "vgg19-fast-eval-b2": "b60412f88417ba81",
    "vgg19-fast-eval-b20": "53faaf7276ba6d71",
    "vgg19-fast-eval-b32": "545557a634e52fc5",
    "vgg19-fast-eval-b5": "15f0b76e7dd1439f",
    "vgg19-fast-train-b1": "8c6eaf9565d04c34",
    "vgg19-fast-train-b2": "80cff6a06d60b7c2",
    "vgg19-fast-train-b20": "28ea21791d3f689e",
    "vgg19-fast-train-b32": "8285cf361fb8ca6b",
    "vgg19-fast-train-b5": "92409d74744d54bf",
    "vgg19-numpy-eval-b1": "9c076362e3770a87",
    "vgg19-numpy-eval-b2": "d58e0a1f8e9ec1c0",
    "vgg19-numpy-eval-b32": "65f616cbb23d7104",
    "vgg19-numpy-train-b1": "3ec5684499512c0f",
    "vgg19-numpy-train-b2": "80cff6a06d60b7c2",
    "vgg19-numpy-train-b32": "c13bbdaf3aae16a1",
}
# fmt: on


def test_table_covers_the_matrix():
    assert set(PINNED) == set(CONFIGS)


def test_backends_agree_but_not_bitwise():
    """The two columns of the table are different arithmetic (GEMM orientation),
    so each needs its own pin: equal digests would mean one backend is unused."""
    assert PINNED["vgg19-numpy-train-b32"] != PINNED["vgg19-fast-train-b32"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_is_pinned(name):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    assert canonical_digest(run_config(CONFIGS[name])) == PINNED[name]


if __name__ == "__main__":
    print(f'PLATFORM_CANARY = "{platform_canary()}"')
    print("PINNED = {")
    for name in sorted(CONFIGS):
        print(f'    "{name}": "{canonical_digest(run_config(CONFIGS[name]))}",')
    print("}")
