"""Property-based tests: the step-by-step ring collectives are exact.

For random world sizes, dtypes and (non-divisible) payload shapes, the
simulated ring allreduce/allgather must equal the numpy reference —
with and without injected faults (seeded, so any failure reproduces).
The reference mean is ``tests.oracles.exact_mean_oracle``: a rank-order
sequential sum in float64, the canonical reduction order every worker must
reproduce bit-for-bit (``np.sum`` would use pairwise accumulation, which
reassociates for p >= 8).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    CollectiveTimeoutError,
    DropSpec,
    FaultInjector,
    FaultSpec,
    allreduce_mean,
    ring_allgather,
    ring_allreduce_mean,
)
from tests.oracles import exact_mean_oracle

WORLD = st.integers(1, 8)
# Sizes straddling the chunking boundary: empty chunks (size < p),
# non-divisible sizes, and exact multiples all occur.
SIZE = st.integers(0, 41)
DTYPE = st.sampled_from([np.float32, np.float64])
SEED = st.integers(0, 2**31 - 1)


def vectors(p, size, dtype, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size).astype(dtype) * 100 for _ in range(p)]


class TestRingAllreduceExactness:
    @given(p=WORLD, size=SIZE, dtype=DTYPE, seed=SEED)
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_reference(self, p, size, dtype, seed):
        vs = vectors(p, size, dtype, seed)
        for out in ring_allreduce_mean(vs):
            assert out.dtype == dtype
            assert np.array_equal(out, exact_mean_oracle(vs))

    @given(p=WORLD, size=SIZE, dtype=DTYPE, seed=SEED)
    @settings(max_examples=40, deadline=None)
    def test_matches_semantic_allreduce(self, p, size, dtype, seed):
        vs = vectors(p, size, dtype, seed)
        semantic = allreduce_mean(vs)
        for out in ring_allreduce_mean(vs):
            assert np.array_equal(out, semantic)

    @given(p=WORLD, rows=st.integers(1, 5), cols=st.integers(1, 5),
           dtype=DTYPE, seed=SEED)
    @settings(max_examples=40, deadline=None)
    def test_preserves_multidim_shape(self, p, rows, cols, dtype, seed):
        rng = np.random.default_rng(seed)
        vs = [rng.standard_normal((rows, cols)).astype(dtype) for _ in range(p)]
        for out in ring_allreduce_mean(vs):
            assert out.shape == (rows, cols)
            assert np.array_equal(out, exact_mean_oracle(vs))

    @given(p=WORLD, size=SIZE, seed=SEED, fault_seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_faults_never_corrupt_numerics(self, p, size, seed, fault_seed):
        """Dropped-and-retried messages delay the ring but the result is
        bit-identical to the fault-free run (or a typed timeout)."""
        vs = vectors(p, size, np.float32, seed)
        clean = ring_allreduce_mean(vs)
        inj = FaultInjector(
            FaultSpec(seed=fault_seed, drop=DropSpec(prob=0.3, max_retries=100))
        )
        faulty = ring_allreduce_mean(vs, faults=inj, iteration=0)
        for a, b in zip(clean, faulty):
            assert np.array_equal(a, b)
        assert inj.drain_penalty() >= 0.0

    @given(p=WORLD, size=SIZE, seed=SEED, fault_seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_fault_penalty_reproduces_with_seed(self, p, size, seed, fault_seed):
        vs = vectors(p, size, np.float32, seed)

        def run():
            inj = FaultInjector(
                FaultSpec(seed=fault_seed, drop=DropSpec(prob=0.4, max_retries=200))
            )
            ring_allreduce_mean(vs, faults=inj, iteration=3)
            return inj.drain_penalty(), [e.as_dict() for e in inj.events]

        assert run() == run()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce_mean(
                [np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32)]
            )

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce_mean([])


class TestRingAllgatherExactness:
    @given(p=WORLD, size=st.integers(0, 9), seed=SEED)
    @settings(max_examples=40, deadline=None)
    def test_every_worker_gets_all_payloads_in_rank_order(self, p, size, seed):
        rng = np.random.default_rng(seed)
        payloads = [rng.standard_normal(size).astype(np.float32) for _ in range(p)]
        views = ring_allgather(payloads)
        assert len(views) == p
        for view in views:
            assert len(view) == p
            for got, want in zip(view, payloads):
                assert got is want  # zero-copy identity, rank order preserved

    @given(p=WORLD, fault_seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_allgather_with_faults_still_exact(self, p, fault_seed):
        payloads = list(range(p))
        inj = FaultInjector(
            FaultSpec(seed=fault_seed, drop=DropSpec(prob=0.3, max_retries=100))
        )
        views = ring_allgather(payloads, faults=inj, iteration=0)
        assert views == [payloads] * p

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            ring_allgather([])


class TestTimeoutUnderExtremeDrops:
    @given(p=st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_certain_drop_raises_not_hangs(self, p):
        vs = [np.ones(8, dtype=np.float32)] * p
        inj = FaultInjector(FaultSpec(seed=0, drop=DropSpec(prob=1.0, max_retries=3)))
        with pytest.raises(CollectiveTimeoutError):
            ring_allreduce_mean(vs, faults=inj, iteration=0)
