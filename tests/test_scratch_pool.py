"""The fast backend's scratch pool: one grow-only arena per literal tag.

What the pool promises its callers and its hosts: a steady-state train step
allocates no scratch at all, a server's pool is sized by its largest batch
rather than by how many batch sizes it has seen, and no model, geometry or
batch size adds an arena — every zero frame is a cleared view of the one
``frame`` arena.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.nn import CrossEntropyLoss
from repro.optim import FusedLAMB, FusedSGD
from repro.tensor import Tensor, backend, no_grad
from repro.tensor.backend import (
    _BATCH_INNER,
    _BATCH_OUTER,
    _CONV_COLS_FLOATS,
    _SCRATCH,
    _ScratchPool,
    _zero_framed,
)


@pytest.fixture
def pool():
    return _ScratchPool()


@pytest.fixture
def clean_global_pool():
    _SCRATCH.clear()
    yield _SCRATCH
    _SCRATCH.clear()


def held(pool):  # (bytes, misses, arenas)
    return sum(a.nbytes for a in pool.values()), pool.misses, len(pool)


class TestPoolRules:
    def test_one_arena_per_tag_grown_to_the_largest_request(self, pool):
        small = pool.get("cols", (4, 10), np.float32)
        assert small.shape == (4, 10) and held(pool) == (160, 1, 1)
        again = pool.get("cols", (2, 5), np.float32)
        assert np.shares_memory(small, again) and held(pool) == (160, 1, 1)
        big = pool.get("cols", (8, 10), np.float32)
        assert held(pool) == (320, 2, 1)
        assert np.shares_memory(big, pool.get("cols", (4, 10), np.float32)) and pool.misses == 2

    def test_dtype_is_part_of_the_key(self, pool):
        a = pool.get("t", (8,), np.float32)
        b = pool.get("t", (8,), np.float64)
        assert not np.shares_memory(a, b) and len(pool) == 2

    def test_empty_request(self, pool):
        assert pool.get("cols", (0, 7), np.float32).shape == (0, 7)
        assert held(pool)[0] == 0


def _train_step(model, opt_cls, batch=8, **opt_kwargs):
    model.train()
    opt = opt_cls(list(model.parameters()), **opt_kwargs)
    loss_fn = CrossEntropyLoss()
    data = np.random.default_rng(0)
    x = data.standard_normal((batch, 3, 32, 32)).astype(np.float32)
    y = data.integers(0, 10, size=batch)

    def step():
        opt.zero_grad()
        loss_fn(model(Tensor(x)), y).backward()
        opt.step()

    return step


def _hybrid_vgg19():
    return build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())[0]


def _hybrid_resnet18():
    model = resnet18(num_classes=10, width_mult=0.25)
    return build_hybrid(model, resnet18_hybrid_config(model))[0]


def test_steady_state_vgg19_step_never_misses(clean_global_pool):
    pool, step = clean_global_pool, _train_step(_hybrid_vgg19(), FusedSGD, lr=0.01, momentum=0.9)
    with backend.use("fast"):
        step()  # forward and backward each meet their largest request once
        warm, arenas = pool.misses, [id(a) for a in pool.values()]
        assert warm > 0
        for _ in range(2):
            step()
    assert pool.misses == warm, "a warmed-up train step allocated scratch"
    assert [id(a) for a in pool.values()] == arenas


@pytest.mark.parametrize(
    "build,batch", [(_hybrid_vgg19, 32), (_hybrid_vgg19, 64), (_hybrid_resnet18, 32)]
)
def test_conv_columns_stay_within_one_budget(clean_global_pool, build, batch):
    """Columns are gathered and multiplied in slices of at most
    ``_CONV_COLS_FLOATS`` elements, whatever the batch.  Holding hybrid VGG-19's
    largest whole column matrix (conv 2, 16 → 16 @ 32²) made its batch-32 pool
    24.3 MiB."""
    with backend.use("fast"):
        _train_step(build(), FusedSGD, batch=batch, lr=0.01, momentum=0.9)()
    assert clean_global_pool._arenas["conv_cols", "<f4"].size <= _CONV_COLS_FLOATS
    if build is _hybrid_vgg19 and batch == 32:
        assert held(clean_global_pool)[0] <= 10 << 20


def test_every_tag_is_one_of_the_seven_literals(clean_global_pool):
    with backend.use("fast"):
        _train_step(_hybrid_vgg19(), FusedSGD, lr=0.01, momentum=0.9)()
        _train_step(_hybrid_resnet18(), FusedLAMB, batch=5, lr=0.01, weight_decay=0.01)()
    tags = {tag for tag, _ in clean_global_pool._arenas}
    assert {"frame", "conv_cols", "bn_gx", "lamb_den"} <= tags
    assert tags <= {"conv_cols", "conv_outT", "frame", "bn_gx", "col2im", "segnorm_sq", "lamb_den"}
    assert len(clean_global_pool) == len(tags)  # float32 throughout: one arena per tag


def _serve_batches_1_to_8(pool, model):
    """Serve batch 8, then every batch size 1…8 in mixed order: the pool must
    end at the batch-8 pool and stay there."""
    model.eval()
    data = np.random.default_rng(0)

    def serve(batch):
        with backend.use("fast"), no_grad():
            model(Tensor(data.standard_normal((batch, 3, 32, 32)).astype(np.float32)))

    serve(8)
    batch8 = held(pool)
    for batch in (1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 8, 5, 8, 4, 5, 1, 7, 2):
        serve(batch)
    assert held(pool) == batch8

    # Arriving smallest-first grows the arenas, but ends at the same bytes.
    pool.clear()
    for batch in range(1, 9):
        serve(batch)
    assert (held(pool)[0], len(pool)) == (batch8[0], batch8[2])


def test_serving_batch_sizes_1_to_8_hold_only_the_batch_8_pool(clean_global_pool):
    _serve_batches_1_to_8(clean_global_pool, _hybrid_resnet18())


def test_serving_hybrid_vgg19_holds_only_the_batch_8_pool(clean_global_pool):
    """VGG-19's last stage runs on 2×2 maps, where batch 8 stores its frames
    batch-innermost and batches 1…7 do not: both orders are views of the one
    ``frame`` arena, so the smaller batches add nothing."""
    _serve_batches_1_to_8(clean_global_pool, _hybrid_vgg19())
    assert len(clean_global_pool) == 3  # conv_cols, conv_outT, frame


def test_a_batch_innermost_frame_is_cleared_on_every_call(clean_global_pool):
    """A smaller batch after a larger one must not find the larger one's
    interior where its border is, wherever the frame stores the batch."""
    order = _BATCH_INNER[0]
    for n in (6, 4, 6, 1):
        src = np.full((n, 2, 2, 2), 7.0, dtype=np.float32)
        frame = _zero_framed(src, 4, 4, 1, 1, order)
        assert frame.shape == (n, 2, 4, 4)
        assert np.array_equal(frame[:, :, 1:3, 1:3], src)
        border = frame.copy()
        border[:, :, 1:3, 1:3] = 0
        assert not border.any()
    assert len(clean_global_pool) == 1


frame_calls = st.lists(
    st.fixed_dictionaries(
        {
            "n": st.integers(1, 6),  # shrinks and grows from call to call
            "c": st.integers(1, 3),
            "h": st.integers(1, 5),
            "w": st.integers(1, 5),
            "fh": st.integers(1, 8),
            "fw": st.integers(1, 8),
            "top": st.integers(-3, 4),  # negative: the frame crops src
            "left": st.integers(-3, 4),
            "layout": st.sampled_from((_BATCH_OUTER, _BATCH_INNER)),
        }
    ).filter(  # some of src lands inside the frame, as every conv's does
        lambda p: -p["h"] < p["top"] < p["fh"] and -p["w"] < p["left"] < p["fw"]
    ),
    min_size=1,
    max_size=6,
)


@given(frame_calls, st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_zero_framed_is_pad_then_crop_whatever_the_arena_held(calls, seed):
    data = np.random.default_rng(seed)
    _SCRATCH.clear()
    margin = 12  # > every |offset| + frame size drawn above
    for p in calls:
        src = data.standard_normal((p["n"], p["c"], p["h"], p["w"])).astype(np.float32)
        frame = _zero_framed(src, p["fh"], p["fw"], p["top"], p["left"], p["layout"][0])
        padded = np.pad(src, ((0, 0), (0, 0), (margin, margin), (margin, margin)))
        y0, x0 = margin - p["top"], margin - p["left"]
        assert np.array_equal(frame, padded[:, :, y0 : y0 + p["fh"], x0 : x0 + p["fw"]])
    assert list(_SCRATCH._arenas) == [("frame", "<f4")]
    _SCRATCH.clear()
