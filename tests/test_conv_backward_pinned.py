"""Characterization of the ``fast`` conv backward: one pinned digest per shape.

Every row hashes the bytes of ``FastBackend.conv2d_backward``'s ``(gw, gb,
gx)`` for one conv on seeded data.  The shapes are the corners of the input
gradient (``INPUT_GRAD_CASES``) and every distinct conv of a batch-32 training
forward of hybrid VGG-19 and ResNet-18 at width 0.25 — on both sides of the
column-order rule (``backend._conv_layout``).  A kernel change that keeps
these digests computes the same gradients to the bit; the tolerance contract
against the ``numpy`` reference is tested elsewhere
(``tests/test_conv_edge_backends.py``).

Bytes depend on the BLAS kernels NumPy dispatches to, so the table binds only
where ``test_forward_frozen``'s ``PLATFORM_CANARY`` does.

Regenerate on purpose with
``PYTHONPATH=src python -m tests.test_conv_backward_pinned``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.tensor import Tensor, backend
from repro.tensor.backend import _BATCH_INNER, _conv_layout, _out_size
from repro.utils import canonical_digest, set_seed

from .test_conv_edge_backends import INPUT_GRAD_CASES
from .test_forward_frozen import PLATFORM_CANARY, _sha, platform_canary


def _vgg19():
    return build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())[0]


def _resnet18():
    model = resnet18(num_classes=10, width_mult=0.25, small_input=True)
    return build_hybrid(model, resnet18_hybrid_config(model))[0]


def train_shapes(build) -> list[tuple]:
    """``(n, c_in, c_out, h, w, kh, kw, stride, (ph, pw))`` of every distinct
    conv a batch-32 training forward of ``build()`` runs on ``fast``."""
    set_seed(0)
    model = build()
    be = backend.get("fast")
    forward, seen = be.conv2d_forward, []

    def record(x, w, b, stride, ph, pw, want_ctx):
        shape = (*x.shape[:2], w.shape[0], *x.shape[2:], *w.shape[2:], stride, (ph, pw))
        if shape not in seen:
            seen.append(shape)
        return forward(x, w, b, stride, ph, pw, want_ctx)

    be.conv2d_forward = record
    try:
        with backend.use("fast"):
            model(Tensor(np.zeros((32, 3, 32, 32), dtype=np.float32)))
    finally:
        del be.conv2d_forward
    return seen


def _name(model: str, shape: tuple) -> str:
    n, c_in, c_out, h, w, kh, kw, stride, (ph, pw) = shape
    return f"{model}-n{n}-{c_in}x{h}x{w}-to-{c_out}-k{kh}x{kw}-s{stride}-p{ph}{pw}"


@functools.lru_cache(maxsize=None)
def configs() -> dict[str, tuple]:
    rows = {}
    for case, (*dims, padding) in INPUT_GRAD_CASES.items():
        rows[f"edge-{case}"] = (*dims, padding if isinstance(padding, tuple) else (padding,) * 2)
    for model, build in (("vgg19", _vgg19), ("resnet18", _resnet18)):
        for shape in train_shapes(build):
            if shape not in rows.values():  # ResNet-18 repeats some VGG-19 convs
                rows[_name(model, shape)] = shape
    return rows


def run_config(shape: tuple) -> str:
    """Digest of ``(gw, gb, gx)`` for one conv with a bias, on data seeded by
    its shape."""
    n, c_in, c_out, h, w, kh, kw, stride, (ph, pw) = shape
    rng = np.random.default_rng([n, c_in, c_out, h, w, kh, kw, stride, ph, pw])
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    wt = (rng.standard_normal((c_out, c_in, kh, kw)) * 0.3).astype(np.float32)
    b = rng.standard_normal((c_out,)).astype(np.float32)
    be = backend.get("fast")
    out, ctx = be.conv2d_forward(x, wt, b, stride, ph, pw, True)
    g = rng.standard_normal(out.shape).astype(np.float32)
    return canonical_digest([_sha(a) for a in be.conv2d_backward(g, ctx, True, True, True)])


# fmt: off
PINNED = {
    "edge-k1-pad1-border-must-crop": "51e2589ebe9ec59a",
    "edge-kh-not-kw": "c188fb65b03ab6dd",
    "edge-one-channel-in": "d6cade65950524df",
    "edge-one-image": "d9403df25d7b4898",
    "edge-one-image-one-channel": "797a2c2b5db60336",
    "edge-pad-exceeds-k-1": "e1360b5c26ce4ac5",
    "edge-ph-not-pw": "fba839575a6246be",
    "edge-stem-7x7-stride2": "6b4b2d06e4fa60d9",
    "edge-stride2-1x1-shortcut": "2dbffc6029784820",
    "edge-stride2-kh-not-kw-ph-not-pw": "207f4d4f0ad00598",
    "edge-stride2-leftover-rows": "1273232c9761aa87",
    "edge-stride3-k2-gap": "9f2f4dc50af96846",
    "resnet18-n32-16x32x32-to-32-k1x1-s2-p00": "f1aa17615b2e3951",
    "resnet18-n32-16x32x32-to-4-k3x3-s1-p11": "a8312fccc821f2ea",
    "resnet18-n32-16x32x32-to-8-k3x3-s2-p11": "31e33286c684a0c5",
    "resnet18-n32-16x8x8-to-64-k1x1-s1-p00": "ba1e9359bb425dc9",
    "resnet18-n32-32x16x16-to-16-k3x3-s2-p11": "9e486f51c1dd4734",
    "resnet18-n32-32x16x16-to-64-k1x1-s2-p00": "d00c5856376dc8c2",
    "resnet18-n32-32x16x16-to-8-k3x3-s1-p11": "c85c44939e8da569",
    "resnet18-n32-4x32x32-to-16-k1x1-s1-p00": "8e0526582a7809eb",
    "resnet18-n32-64x8x8-to-128-k1x1-s2-p00": "e688b9c8d9b0f232",
    "resnet18-n32-64x8x8-to-16-k3x3-s1-p11": "f8d1c203fe11a507",
    "resnet18-n32-64x8x8-to-32-k3x3-s2-p11": "2d501321a24125d6",
    "resnet18-n32-8x16x16-to-32-k1x1-s1-p00": "5e291eb983ec66b4",
    "vgg19-n32-128x2x2-to-32-k3x3-s1-p11": "2d98c2c5e22f891c",
    "vgg19-n32-128x4x4-to-32-k3x3-s1-p11": "1331314896fbb871",
    "vgg19-n32-16x16x16-to-32-k3x3-s1-p11": "28c0c351852a458c",
    "vgg19-n32-16x32x32-to-16-k3x3-s1-p11": "e41d3d090da65226",
    "vgg19-n32-32x16x16-to-32-k3x3-s1-p11": "f7392cbd511a634e",
    "vgg19-n32-32x2x2-to-128-k1x1-s1-p00": "1a92ae367c8969b3",
    "vgg19-n32-32x4x4-to-128-k1x1-s1-p00": "14d3c17fb451fde4",
    "vgg19-n32-32x8x8-to-64-k3x3-s1-p11": "33e0b3297807c7eb",
    "vgg19-n32-3x32x32-to-16-k3x3-s1-p11": "cca5d9f854cf3b67",
    "vgg19-n32-64x4x4-to-128-k3x3-s1-p11": "3fc4996a7ddef2df",
    "vgg19-n32-64x8x8-to-64-k3x3-s1-p11": "3c11d909575d8f5d",
}
# fmt: on


def test_table_covers_the_matrix():
    assert set(PINNED) == set(configs())


def test_model_rows_sit_on_both_sides_of_the_column_order_rule():
    inner = set()
    for name, (n, _, _, h, w, kh, kw, stride, (ph, pw)) in configs().items():
        if not name.startswith("edge-"):
            oh, ow = _out_size(h, kh, stride, ph), _out_size(w, kw, stride, pw)
            inner.add(_conv_layout(n, oh, ow) is _BATCH_INNER)
    assert inner == {False, True}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_is_pinned(name):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    assert run_config(configs()[name]) == PINNED[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name, shape in sorted(configs().items()):
        print(f'    "{name}": "{run_config(shape)}",')
    print("}")
