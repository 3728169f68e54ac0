"""The fast backend's scratch pool: one grow-only arena per literal tag.

What the pool promises its callers and its hosts: a steady-state train step
allocates no scratch at all, a server's pool is sized by its largest batch
rather than by how many batch sizes it has seen, and no model, geometry or
batch size adds an arena — every zero frame is a cleared view of the one
``frame`` arena.  The conv plans kept beside the arenas are built once per
geometry and only ever hold views of the arenas the pool holds now.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.nn import CrossEntropyLoss
from repro.optim import LAMB, SGD
from repro.tensor import Tensor, backend, no_grad
from repro.tensor.backend import (
    _BATCH_INNER,
    _BATCH_OUTER,
    _CONV_COLS_FLOATS,
    _SCRATCH,
    _Gather,
    _ScratchPool,
    _frame_views,
)


def _framed(src, fh, fw, top, left, order):
    """``src`` laid in a zero frame through :func:`_frame_views`, cleared and
    filled the way a conv plan's ``_Gather`` does on every call."""
    flat, frame, interior, crop = _frame_views(src.shape, src.dtype, fh, fw, top, left, order)
    flat.fill(0)
    interior[...] = src[crop]
    return frame


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
    pool, step = clean_global_pool, _train_step(_hybrid_vgg19(), SGD, lr=0.01, momentum=0.9)
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
        _train_step(build(), SGD, batch=batch, lr=0.01, momentum=0.9)()
    assert clean_global_pool._arenas["conv_cols", "<f4"].size <= _CONV_COLS_FLOATS
    if build is _hybrid_vgg19 and batch == 32:
        assert held(clean_global_pool)[0] <= 10 << 20


def test_every_tag_is_one_of_the_seven_literals(clean_global_pool):
    with backend.use("fast"):
        _train_step(_hybrid_vgg19(), SGD, lr=0.01, momentum=0.9)()
        _train_step(_hybrid_resnet18(), LAMB, batch=5, lr=0.01, weight_decay=0.01)()
    tags = {tag for tag, _ in clean_global_pool._arenas}
    assert {"frame", "conv_cols", "bn_gx", "lamb_den"} <= tags
    assert tags <= {"conv_cols", "conv_outT", "frame", "bn_gx", "col2im", "segnorm_sq", "lamb_den"}
    assert len(clean_global_pool) == len(tags)  # float32 throughout: one arena per tag


def _plan_views(plan):
    """Every array a plan holds."""
    for step in plan:
        held = [getattr(step[2], name) for name in _Gather.__slots__] + list(step[3:])
        yield from (a for a in held if isinstance(a, np.ndarray))


def _conv(x, weight, want_ctx=False):
    return backend.get("fast").conv2d_forward(x, weight, None, 1, 1, 1, want_ctx)


class TestPlans:
    def test_one_geometry_repeated_builds_one_plan(self, clean_global_pool):
        data = np.random.default_rng(0)
        x = data.standard_normal((2, 16, 8, 8)).astype(np.float32)
        w = data.standard_normal((8, 16, 3, 3)).astype(np.float32)
        first, _ = _conv(x, w)
        plans = dict(clean_global_pool._plans)
        assert len(plans) == 1
        for want_ctx in (False, True, False):  # with or without ctx: the one plan
            again, _ = _conv(x, w, want_ctx)
            assert np.array_equal(again, first)
        assert clean_global_pool._plans == plans
        assert all(clean_global_pool._plans[key] is plan for key, plan in plans.items())

        # A backward adds one weight-gradient and one input-gradient plan.  Its
        # first call grows conv_outT (16 output channels), which drops the
        # plans built before: the second round rebuilds them once.
        be = backend.get("fast")
        g = data.standard_normal(first.shape).astype(np.float32)
        grads = be.conv2d_backward(g, _conv(x, w, True)[1], True, True, True)
        be.conv2d_backward(g, _conv(x, w, True)[1], True, True, True)
        plans = dict(clean_global_pool._plans)
        assert len(plans) == 3
        for _ in range(3):
            out, ctx = _conv(x, w, True)
            again = be.conv2d_backward(g, ctx, True, True, True)
            assert np.array_equal(out, first)
            assert all(np.array_equal(a, b) for a, b in zip(again, grads))
        assert all(clean_global_pool._plans[key] is plan for key, plan in plans.items())
        assert len(clean_global_pool._plans) == 3

    def test_a_grown_arena_dies_with_the_plans_that_viewed_it(self, clean_global_pool):
        data = np.random.default_rng(1)
        x = data.standard_normal((1, 8, 4, 4)).astype(np.float32)
        w = data.standard_normal((4, 8, 3, 3)).astype(np.float32)
        first, _ = _conv(x, w)
        old = weakref.ref(clean_global_pool._arenas["conv_cols", "<f4"])
        big = data.standard_normal((2, 16, 16, 16)).astype(np.float32)
        _conv(big, data.standard_normal((4, 16, 3, 3)).astype(np.float32))
        assert old() is None, "a plan kept the replaced conv_cols arena alive"
        assert np.array_equal(_conv(x, w)[0], first)

    def test_no_replaced_arena_outlives_its_replacement(self, clean_global_pool, monkeypatch):
        """Whenever the pool hands out a view, every arena it replaced before is
        already freed: no plan keeps one alive, not even one a caller is still
        holding while the next conv's plan grows an arena."""
        replaced, get = [], backend._scratch

        def checked_get(tag, shape, dtype):
            assert all(ref() is None for ref in replaced), "a replaced arena is alive"
            key = (tag, np.dtype(dtype).str)
            old = clean_global_pool._arenas.get(key)
            view = get(tag, shape, dtype)
            if old is not None and clean_global_pool._arenas[key] is not old:
                replaced.append(weakref.ref(old))
            return view

        monkeypatch.setattr(backend, "_scratch", checked_get)
        # The input gradient gathers 16 channels where the forward and the
        # weight gradient gathered 4: it grows conv_cols right after gw.
        data = np.random.default_rng(3)
        x = data.standard_normal((2, 4, 8, 8)).astype(np.float32)
        out, ctx = _conv(x, data.standard_normal((16, 4, 3, 3)).astype(np.float32), True)
        backend.get("fast").conv2d_backward(np.ones_like(out), ctx, True, True, True)
        with backend.use("fast"):
            _train_step(_hybrid_vgg19(), SGD, lr=0.01, momentum=0.9)()
        assert len(replaced) > 1

    def test_training_and_serving_keep_one_arena_per_tag(self, clean_global_pool):
        """A VGG-19 batch-32 step, then ResNet-18 eval at batches 1, 2 and 8:
        still one arena per tag, and every view a plan holds is of one of them."""
        data = np.random.default_rng(2)
        with backend.use("fast"):
            _train_step(_hybrid_vgg19(), SGD, batch=32, lr=0.01, momentum=0.9)()
            model = _hybrid_resnet18()
            model.eval()
            for batch in (1, 2, 8):
                with no_grad():
                    model(Tensor(data.standard_normal((batch, 3, 32, 32)).astype(np.float32)))
        tags = [tag for tag, _ in clean_global_pool._arenas]
        assert len(tags) == len(set(tags))
        arenas = list(clean_global_pool.values())
        assert clean_global_pool._plans
        for plan in clean_global_pool._plans.values():
            for view in _plan_views(plan):
                assert any(np.may_share_memory(view, a) for a in arenas)


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
        frame = _framed(src, 4, 4, 1, 1, order)
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
def test_frame_views_are_pad_then_crop_whatever_the_arena_held(calls, seed):
    data = np.random.default_rng(seed)
    _SCRATCH.clear()
    margin = 12  # > every |offset| + frame size drawn above
    for p in calls:
        src = data.standard_normal((p["n"], p["c"], p["h"], p["w"])).astype(np.float32)
        frame = _framed(src, p["fh"], p["fw"], p["top"], p["left"], p["layout"][0])
        padded = np.pad(src, ((0, 0), (0, 0), (margin, margin), (margin, margin)))
        y0, x0 = margin - p["top"], margin - p["left"]
        assert np.array_equal(frame, padded[:, :, y0 : y0 + p["fh"], x0 : x0 + p["fw"]])
    assert list(_SCRATCH._arenas) == [("frame", "<f4")]
    _SCRATCH.clear()
