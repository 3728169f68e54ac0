"""``exact_mean`` is byte-equal to the whole-array float64 formula it replaced.

The oracle (``tests.oracles.exact_mean_oracle``) casts worker 0 to float64,
adds every later worker in list order, divides once and casts back.
``exact_mean`` runs the same float64 operations in the same order over cache
sized chunks, so the bytes must match on every input: worker counts 1-8,
sizes on both sides of a chunk boundary and the ``ddp_factorized`` model's
641 284 parameters, float32 and float64, strided and reversed views, and
signed zeros, infinities and NaNs (whose sign and payload bits the
comparison sees).  The three callers are checked against the same oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import NoCompression
from repro.compression.base import MEAN_CHUNK, EncodeResult, exact_mean
from repro.distributed import allreduce_mean, bucketed_allreduce_mean
from repro.distributed.overlap import Bucket
from tests.oracles import exact_mean_oracle

SIZES = [0, 1, MEAN_CHUNK - 1, MEAN_CHUNK, MEAN_CHUNK + 1, 641_284]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
LAYOUTS = ("contiguous", "strided", "reversed")


def worker_arrays(world, size, dtype, seed, n_special):
    """``world`` arrays of ``size`` elements spanning many binades (so the
    float64 sums round), each in a random layout, ``n_special`` entries of
    each overwritten with a signed zero, an infinity or a NaN."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(world):
        v = (rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)).astype(dtype)
        if size:
            v[rng.integers(0, size, n_special)] = rng.choice(SPECIALS, n_special)
        layout = LAYOUTS[rng.integers(len(LAYOUTS))]
        if layout == "strided":
            base = np.empty(2 * size, dtype=dtype)
            base[::2] = v
            v = base[::2]
        elif layout == "reversed":
            v = np.ascontiguousarray(v[::-1])[::-1]
        out.append(v)
    return out


@given(
    world=st.integers(1, 8),
    size=st.sampled_from(SIZES),
    dtype=st.sampled_from([np.float32, np.float64]),
    out_dtype=st.sampled_from([None, np.float32]),
    seed=st.integers(0, 2**31 - 1),
    n_special=st.integers(0, 6),
)
@example(world=3, size=MEAN_CHUNK + 1, dtype=np.float32, out_dtype=None, seed=0, n_special=6)
@example(world=5, size=MEAN_CHUNK - 1, dtype=np.float64, out_dtype=np.float32, seed=1, n_special=6)
@example(world=7, size=641_284, dtype=np.float32, out_dtype=None, seed=2, n_special=6)
@settings(max_examples=60, deadline=None)
def test_byte_equal_to_the_oracle(world, size, dtype, out_dtype, seed, n_special):
    arrays = worker_arrays(world, size, dtype, seed, n_special)
    with np.errstate(all="ignore"):  # inf + -inf is the point, not a bug
        want = exact_mean_oracle(arrays, out_dtype)
        got = exact_mean(arrays, out_dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_transposed_inputs_keep_their_logical_shape():
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((5, 7)).astype(np.float32).T for _ in range(3)]
    got = exact_mean(arrays)
    assert got.shape == (7, 5)
    assert got.tobytes() == exact_mean_oracle(arrays).tobytes()


def test_rejects_no_arrays_and_mixed_shapes():
    with pytest.raises(ValueError, match="no arrays"):
        exact_mean([])
    with pytest.raises(ValueError, match="one shape"):
        exact_mean([np.zeros(3), np.zeros(4)])


@given(world=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_every_caller_is_the_oracle(world, seed):
    """NoCompression's decode per layer, the semantic allreduce and its
    bucketed form all return the oracle's bytes."""
    rng = np.random.default_rng(seed)
    shapes = [(33, 17), (17,), (MEAN_CHUNK + 3,)]
    grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(world)]
    decoded = NoCompression(world).decode_aggregate(
        [EncodeResult(payload=g, nbytes=0) for g in grads]
    )
    for layer, got in zip(zip(*grads), decoded):
        assert got.tobytes() == exact_mean_oracle(layer, np.float32).tobytes()

    flat = [np.concatenate([g.reshape(-1) for g in worker]) for worker in grads]
    want = exact_mean_oracle(flat).tobytes()
    assert allreduce_mean(flat).tobytes() == want
    cut = int(rng.integers(1, flat[0].size))
    buckets = [Bucket(0, (), 0, cut), Bucket(1, (), cut, flat[0].size - cut)]
    assert bucketed_allreduce_mean(flat, buckets).tobytes() == want
