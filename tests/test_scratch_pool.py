"""The fast backend's scratch pool: one arena per tag, LRU under a byte budget.

What the pool promises its callers and its hosts: a steady-state train step
allocates no scratch at all, a server's pool is sized by its largest batch
rather than by how many batch sizes it has seen, a zero-bordered frame's
border is zero after every (re)creation, and the bytes held never exceed
``BUDGET_FACTOR`` times the largest arena.
"""

import numpy as np
import pytest

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.nn import CrossEntropyLoss
from repro.optim import FusedSGD
from repro.tensor import Tensor, backend, no_grad
from repro.tensor.backend import _BATCH_INNER, _SCRATCH, _ScratchPool, _zero_framed


@pytest.fixture
def pool():
    return _ScratchPool()


@pytest.fixture
def clean_global_pool():
    _SCRATCH.clear()
    yield _SCRATCH
    _SCRATCH.clear()


class TestPoolRules:
    def test_one_arena_per_tag_grown_to_the_largest_request(self, pool):
        small = pool.get("cols", (4, 10), np.float32)
        assert small.shape == (4, 10) and pool.nbytes == 160 and pool.misses == 1
        again = pool.get("cols", (2, 5), np.float32)
        assert np.shares_memory(small, again) and pool.misses == 1 and len(pool) == 1
        big = pool.get("cols", (8, 10), np.float32)
        assert pool.misses == 2 and len(pool) == 1 and pool.nbytes == 320
        assert np.shares_memory(big, pool.get("cols", (4, 10), np.float32)) and pool.misses == 2

    def test_dtype_is_part_of_the_key(self, pool):
        a = pool.get("t", (8,), np.float32)
        b = pool.get("t", (8,), np.float64)
        assert not np.shares_memory(a, b) and len(pool) == 2

    def test_least_recently_used_goes_first(self, pool):
        factor = pool.BUDGET_FACTOR
        tags = [f"t{i}" for i in range(factor)]
        for tag in tags:  # `factor` equal arenas fill the budget exactly
            pool.get(tag, (25,), np.float32)
        assert len(pool) == factor and pool.nbytes == factor * 100
        pool.get("t0", (25,), np.float32)  # touch: t1 is now the oldest
        pool.get("new", (25,), np.float32)  # one arena over the budget
        assert [key[0] for key in pool._arenas] == tags[2:] + ["t0", "new"]
        assert pool.nbytes == factor * 100

    def test_budget_follows_the_largest_arena(self, pool):
        factor = pool.BUDGET_FACTOR
        for i in range(2 * factor):
            pool.get(("frame", i), (100,), np.uint8)
        assert pool.nbytes == factor * 100
        for i in range(100):  # every layer touches the shared columns arena ...
            pool.get("cols", (1000,), np.uint8)  # ... so it sets the budget
            pool.get(("frame", i), (100,), np.uint8)
        assert pool.nbytes == factor * 1000 and len(pool) == 1 + (factor - 1) * 10

    def test_zeroed_arena_is_zero_after_creation_growth_and_eviction(self, pool):
        def frame(n):
            buf = pool.get(("frame", 3, 3), (n, 3, 3), np.float32, zeroed=True)
            border = buf.copy()
            border[:, 1, 1] = 0
            assert not border.any(), "a frame's border must be zero"
            buf[:, 1, 1] = 7.0  # the interior, the same position for every item
            return buf

        frame(2)
        frame(2)  # reused: the interior is stale, the border still zero
        frame(5)  # grown: np.zeros again, items 2..4 have never been written
        frame(1)  # a smaller batch is a prefix of the same arena
        for i in range(pool.BUDGET_FACTOR):  # push it out ...
            pool.get(("other", i), (5, 3, 3), np.float32)
        assert ("frame", 3, 3) not in [key[0] for key in pool._arenas]
        frame(5)  # ... and re-create it

    def test_empty_request(self, pool):
        assert pool.get("cols", (0, 7), np.float32).shape == (0, 7)
        assert pool.nbytes == 0


@pytest.fixture(scope="module")
def vgg_step():
    model, _ = build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())
    model.train()
    opt = FusedSGD(list(model.parameters()), lr=0.01, momentum=0.9)
    loss_fn = CrossEntropyLoss()
    data = np.random.default_rng(0)
    x = data.standard_normal((8, 3, 32, 32)).astype(np.float32)
    y = data.integers(0, 10, size=8)

    def step():
        opt.zero_grad()
        loss_fn(model(Tensor(x)), y).backward()
        opt.step()

    return step


def test_steady_state_vgg19_step_never_misses(vgg_step, clean_global_pool):
    pool = clean_global_pool
    with backend.use("fast"):
        # Two steps to warm up: the first backward meets its largest arena
        # last, so the budget is still small while the first forward's frames
        # are the oldest entries, and the second step re-creates a few.
        vgg_step()
        vgg_step()
        warm, arenas = pool.misses, [id(a) for a in pool.values()]
        assert warm > 0
        for _ in range(2):
            vgg_step()
    assert pool.misses == warm, "a warmed-up train step allocated scratch"
    assert sorted(id(a) for a in pool.values()) == sorted(arenas)
    assert pool.nbytes == sum(a.nbytes for a in pool.values())
    assert pool.nbytes <= pool.BUDGET_FACTOR * max(a.nbytes for a in pool.values())


def _serve_batches_1_to_8(pool, model, flipped=(0, 0, 0)):
    """Serve batch 8, then every batch size 1…8 in mixed order: the pool must
    end at the batch-8 pool plus ``flipped`` (bytes, misses, arenas) and stay
    there."""
    model.eval()
    data = np.random.default_rng(0)

    def serve(batch):
        with backend.use("fast"), no_grad():
            model(Tensor(data.standard_normal((batch, 3, 32, 32)).astype(np.float32)))

    serve(8)
    batch8 = (pool.nbytes, pool.misses, len(pool))
    for batch in (1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 8, 5):
        serve(batch)
    mixed = (pool.nbytes, pool.misses, len(pool))
    assert mixed == tuple(np.add(batch8, flipped))
    for batch in (8, 4, 5, 1, 7, 2):
        serve(batch)
    assert (pool.nbytes, pool.misses, len(pool)) == mixed

    # Arriving smallest-first grows the arenas, but ends at the same bytes.
    pool.clear()
    for batch in range(1, 9):
        serve(batch)
    assert (pool.nbytes, len(pool)) == (mixed[0], mixed[2])


def test_serving_batch_sizes_1_to_8_hold_only_the_batch_8_pool(clean_global_pool):
    model = resnet18(num_classes=10, width_mult=0.25)
    _serve_batches_1_to_8(clean_global_pool, build_hybrid(model, resnet18_hybrid_config(model))[0])


def test_serving_hybrid_vgg19_adds_one_frame_below_the_column_order_rule(clean_global_pool):
    """VGG-19's last stage runs on 2×2 maps: batch 8 puts the batch axis
    innermost there (32 columns, whole GEMM tiles: one shared, per-call-cleared
    frame arena), batches 1…7 do not — too short a run up to 4, a ragged last
    tile at 5…7 — and bring that stage's geometry-keyed frame, (7, 128, 4, 4)
    float32 at the largest of them, grown once per batch size on the way up.
    That one frame is all a smaller batch may add to the batch-8 pool."""
    model, _ = build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())
    _serve_batches_1_to_8(clean_global_pool, model, flipped=(7 * 128 * 4 * 4 * 4, 7, 1))


def test_a_batch_innermost_frame_is_cleared_on_every_call(clean_global_pool):
    """The pool's zero-border promise is per leading-axis item; a frame that
    stores the batch last gets no such promise, so a smaller batch after a
    larger one must not find the larger one's interior where its border is."""
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
