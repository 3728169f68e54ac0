"""Gradient bucketing + comm/compute overlap: bucket assembly, bit-exact
bucketed allreduce (hypothesis), the discrete-event schedule, and the
DistributedTrainer overlap path (numerics + fault-timeline determinism)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import PowerSGD, TopK
from repro.data import DataLoader, make_cifar_like, shard_dataset
from repro.distributed import (
    Bucket,
    ClusterSpec,
    DistributedTrainer,
    GradientArrivalRecorder,
    allreduce_mean,
    broadcast_time,
    bucket_comm_times,
    bucketed_allreduce_mean,
    build_buckets,
    parse_fault_spec,
    pipelined_broadcast_time,
    schedule_overlap,
)
from repro.models import MLP
from repro.optim import SGD, Adam, FusedAdam, FusedSGD
from repro.tensor import Tensor
from repro.utils import set_seed

FLOAT32_BYTES = 4


class TestBuildBuckets:
    def test_reverse_order_contiguous_partition(self):
        sizes = [100, 3, 50, 7, 200, 1]
        buckets = build_buckets(sizes, 300 * FLOAT32_BYTES)
        # Bucket 0 holds the tail of the parameter list (backward's first
        # gradients), and every bucket is a contiguous ascending run.
        assert len(sizes) - 1 in buckets[0].param_indices
        covered = [i for b in buckets for i in b.param_indices]
        assert sorted(covered) == list(range(len(sizes)))
        for b in buckets:
            assert list(b.param_indices) == list(
                range(b.param_indices[0], b.param_indices[-1] + 1)
            )
        # Contiguous slices tile the flat vector exactly.
        spans = sorted((b.offset, b.size) for b in buckets)
        expected = 0
        for off, size in spans:
            assert off == expected
            expected = off + size
        assert expected == sum(sizes)

    def test_cap_respected_unless_single_oversized_tensor(self):
        sizes = [10, 500, 10, 10]
        cap = 100 * FLOAT32_BYTES
        buckets = build_buckets(sizes, cap)
        for b in buckets:
            if len(b.param_indices) > 1:
                assert b.nbytes <= cap
        oversized = [b for b in buckets if 1 in b.param_indices]
        assert len(oversized) == 1 and oversized[0].param_indices == (1,)

    def test_single_bucket_when_cap_huge(self):
        buckets = build_buckets([5, 5, 5], 1e9)
        assert len(buckets) == 1
        assert buckets[0].param_indices == (0, 1, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_buckets([], 100)
        with pytest.raises(ValueError):
            build_buckets([5], 0)


class TestBucketedAllreduce:
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        cap_elems=st.integers(1, 60),
        workers=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bucketed_equals_monolithic_for_any_bucketing(
        self, sizes, cap_elems, workers, seed
    ):
        buckets = build_buckets(sizes, cap_elems * FLOAT32_BYTES)
        total = sum(sizes)
        rng = np.random.default_rng(seed)
        vecs = [
            (rng.standard_normal(total) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
            for _ in range(workers)
        ]
        mono = allreduce_mean(vecs)
        bucketed = bucketed_allreduce_mean(vecs, buckets)
        assert np.array_equal(mono, bucketed)

    @given(
        cuts=st.lists(st.integers(1, 99), max_size=6),
        workers=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_is_exact(self, cuts, workers, seed):
        """Not just greedy buckets: *any* tiling of the vector reduces to
        the monolithic result bit for bit."""
        total = 100
        points = [0] + sorted(set(cuts)) + [total]
        buckets = [
            Bucket(i, (), start, end - start)
            for i, (start, end) in enumerate(zip(points[:-1], points[1:]))
        ]
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(total).astype(np.float32) for _ in range(workers)]
        assert np.array_equal(
            allreduce_mean(vecs), bucketed_allreduce_mean(vecs, buckets)
        )

    def test_rejects_non_tiling_buckets(self):
        vecs = [np.ones(10, np.float32)]
        with pytest.raises(ValueError):
            bucketed_allreduce_mean(vecs, [Bucket(0, (), 0, 4), Bucket(1, (), 6, 4)])


class TestScheduleOverlap:
    def test_fully_hidden_when_backward_dominates(self):
        tl = schedule_overlap([0.1, 0.5, 0.9], [0.05, 0.05, 0.05], backward_end=10.0)
        assert tl.exposed == pytest.approx(0.0)
        assert tl.overlap_fraction == pytest.approx(1.0)

    def test_fully_exposed_when_no_compute(self):
        tl = schedule_overlap([0.0, 0.0], [1.0, 2.0], backward_end=0.0)
        assert tl.exposed == pytest.approx(3.0)
        assert tl.overlap_fraction == pytest.approx(0.0)

    def test_serial_channel_and_tail_penalty(self):
        tl = schedule_overlap([0.0, 0.0], [2.0, 1.0], backward_end=2.5, tail_penalty=0.5)
        # Bucket 1 waits for bucket 0's allreduce to finish.
        assert tl.events[1].start == pytest.approx(2.0)
        assert tl.finish == pytest.approx(3.5)
        assert tl.exposed == pytest.approx(1.0)
        assert tl.comm_total == pytest.approx(3.5)

    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_exposed_bounded_by_comm_total(self, n, seed):
        rng = np.random.default_rng(seed)
        ready = sorted(rng.uniform(0, 1, n))
        comm = rng.uniform(0, 0.5, n)
        backward_end = float(rng.uniform(0.5, 2.0))
        tail = float(rng.uniform(0, 0.2))
        tl = schedule_overlap(ready, comm, backward_end, tail_penalty=tail)
        assert 0.0 <= tl.exposed <= tl.comm_total + 1e-12
        assert 0.0 <= tl.overlap_fraction <= 1.0 + 1e-12
        for prev, cur in zip(tl.events, tl.events[1:]):
            assert cur.start >= prev.end


class TestGradientArrivalRecorder:
    def test_records_reverse_layer_order(self):
        set_seed(0)
        model = MLP(12, [10, 8], 4)
        params = list(model.parameters())
        with GradientArrivalRecorder(params) as rec:
            x = Tensor(np.random.default_rng(0).standard_normal((4, 12)).astype(np.float32))
            loss = model(x).sum()
            loss.backward()
        assert set(rec.arrivals) == set(range(len(params)))
        times = rec.arrival_times()
        assert all(0.0 <= t <= rec.total for t in times)
        # Backward reaches the last layer's parameters first.
        assert times[-1] <= times[0]

    def test_restores_previous_hook(self):
        from repro.tensor import tensor as _tensor

        sentinel = lambda t: None
        _tensor.GRAD_ARRIVAL_HOOK = sentinel
        try:
            with GradientArrivalRecorder([]):
                assert _tensor.GRAD_ARRIVAL_HOOK is not sentinel
            assert _tensor.GRAD_ARRIVAL_HOOK is sentinel
        finally:
            _tensor.GRAD_ARRIVAL_HOOK = None


def make_trainer(overlap, faults=None, fused=False, nodes=4, bucket_mb=0.05, opt_cls=None):
    set_seed(3)
    rng = np.random.default_rng(3)
    model = MLP(3 * 32 * 32, [64, 32], 4)
    ds = make_cifar_like(n=nodes * 8 * 3, num_classes=4, noise=0.2, rng=rng)
    shards = shard_dataset(ds.images, ds.labels, nodes)
    loaders = [DataLoader(x, y, 8) for x, y in shards]
    if opt_cls is None:
        opt_cls = FusedSGD if fused else SGD
        opt = opt_cls(model.parameters(), lr=0.05, momentum=0.9)
    else:
        opt = opt_cls(model.parameters(), lr=1e-3)
    trainer = DistributedTrainer(
        model,
        opt,
        ClusterSpec(nodes, bandwidth_gbps=0.3),
        overlap=overlap,
        bucket_mb=bucket_mb,
        faults=parse_fault_spec(faults) if faults else None,
    )
    return model, trainer, loaders


FAULT_SPEC = (
    "seed=42,straggler=lognormal:0.3:0.5,drop=0.05,link=0.3:0.25:2,"
    "failure=0.02:rejoin:0.5"
)


class TestDistributedOverlap:
    def test_params_bit_equal_to_monolithic(self):
        m0, t0, l0 = make_trainer(False)
        m1, t1, l1 = make_trainer(True)
        t0.train_epoch(l0)
        tl = t1.train_epoch(l1)
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)
        ov = tl.overlap
        assert ov["n_buckets"] == len(t1._buckets) > 1
        assert 0.0 <= ov["overlap_fraction"] <= 1.0
        assert ov["comm_exposed_s"] <= ov["comm_total_s"] + 1e-12
        assert len(t1.overlap_events) == tl.iterations

    def test_fused_optimizer_matches_too(self):
        m0, t0, l0 = make_trainer(False)
        m1, t1, l1 = make_trainer(True, fused=True)
        t0.train_epoch(l0)
        t1.train_epoch(l1)
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_fused_adam_matches_loop_adam_under_overlap(self):
        """FusedAdam is stepped like FusedSGD: the DDP aggregate gives
        every parameter a gradient, so fused and loop Adam are
        bit-identical across the overlap boundary."""
        m0, t0, l0 = make_trainer(False, opt_cls=Adam)
        m1, t1, l1 = make_trainer(True, opt_cls=FusedAdam)
        t0.train_epoch(l0)
        tl = t1.train_epoch(l1)
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)
        assert tl.overlap["n_buckets"] > 1

    def test_fused_adam_fault_timeline_matches_loop(self):
        """Swapping the optimizer must not perturb the seeded fault
        stream: fault draws are keyed to the comm schedule, not the
        optimizer's update math."""
        m0, t0, l0 = make_trainer(True, faults=FAULT_SPEC, opt_cls=Adam)
        m1, t1, l1 = make_trainer(True, faults=FAULT_SPEC, opt_cls=FusedAdam)
        t0.train_epoch(l0)
        t1.train_epoch(l1)
        ev0 = [e.as_dict() for e in t0.faults.events]
        ev1 = [e.as_dict() for e in t1.faults.events]
        assert ev0 == ev1 and len(ev0) > 0
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_fault_timeline_identical_with_and_without_overlap(self):
        """The acceptance-criterion determinism property: a fixed seed
        yields an identical fault event stream whether or not overlap is
        on — bucketing must not consume extra RNG draws.  The one allowed
        divergence is the recovery *cost*: overlap reuses its bucket
        tiling for a pipelined rejoin broadcast, so recovery events keep
        their (kind, iteration, entity) identity but may carry a smaller
        modeled value."""
        m0, t0, l0 = make_trainer(False, faults=FAULT_SPEC)
        m1, t1, l1 = make_trainer(True, faults=FAULT_SPEC)
        tl0 = t0.train_epoch(l0)
        tl1 = t1.train_epoch(l1)
        ev0 = [e.as_dict() for e in t0.faults.events]
        ev1 = [e.as_dict() for e in t1.faults.events]
        keys = lambda evs: [(e["kind"], e["iteration"], e["entity"]) for e in evs]
        assert keys(ev0) == keys(ev1) and len(ev0) > 0
        assert [e for e in ev0 if e["kind"] != "recovery"] == [
            e for e in ev1 if e["kind"] != "recovery"
        ]
        # Numerics stay bit-equal under faults as well.
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)
        # Recovery charges (modeled) never favor the monolithic path.
        assert tl1.other <= tl0.other

    def test_modeled_events_deterministic_across_runs(self):
        _, t1, l1 = make_trainer(True, faults=FAULT_SPEC)
        _, t2, l2 = make_trainer(True, faults=FAULT_SPEC)
        t1.train_epoch(l1)
        t2.train_epoch(l2)

        def modeled(events):
            return [
                (
                    e["iteration"],
                    e["comm_total_s"] - e["tail_penalty_s"],
                    e["tail_penalty_s"],
                    tuple((b["nbytes"], b["comm_s"]) for b in e["buckets"]),
                )
                for e in events
            ]

        assert modeled(t1.overlap_events) == modeled(t2.overlap_events)

    def test_overlap_rejects_non_allreduce_compressors(self):
        """Sum-incompatible encodings (sign/top-k) still cannot overlap —
        they allgather the whole gradient at once.  Allreduce-compatible
        compressors are now accepted and encode per bucket."""
        set_seed(0)
        model = MLP(12, [8], 4)
        opt = SGD(model.parameters(), lr=0.05)
        with pytest.raises(ValueError, match="allreduce-compatible"):
            DistributedTrainer(
                model,
                opt,
                ClusterSpec(4),
                compressor=TopK(4, ratio=0.1),
                overlap=True,
            )

    def test_overlap_accepts_powersgd(self):
        set_seed(0)
        model = MLP(12, [8], 4)
        opt = SGD(model.parameters(), lr=0.05)
        trainer = DistributedTrainer(
            model,
            opt,
            ClusterSpec(4),
            compressor=PowerSGD(4, rank=2),
            overlap=True,
            bucket_mb=0.05,
        )
        assert trainer.overlap and trainer.compressor.name == "powersgd"

    def test_bucket_comm_times_match_sum(self):
        cluster = ClusterSpec(4, bandwidth_gbps=0.3)
        times = bucket_comm_times([1000, 2000, 500], cluster)
        assert len(times) == 3
        assert all(t > 0 for t in times)


class TestPipelinedRecoveryBroadcast:
    """Satellite of the serving PR: rejoin recovery reuses bucket tiling."""

    def test_single_chunk_matches_monolithic(self):
        cluster = ClusterSpec(8, bandwidth_gbps=0.3)
        nbytes = 1_000_000
        assert pipelined_broadcast_time([nbytes], cluster) == pytest.approx(
            broadcast_time(nbytes, cluster)
        )

    def test_tiled_cheaper_than_monolithic_multichunk(self):
        cluster = ClusterSpec(8, bandwidth_gbps=0.3)
        chunks = [250_000] * 4
        tiled = pipelined_broadcast_time(chunks, cluster)
        assert tiled < broadcast_time(sum(chunks), cluster)

    def test_two_nodes_no_pipeline_benefit(self):
        # L = 1 tree level: no store-and-forward to pipeline away, but the
        # per-chunk latency terms still apply.
        cluster = ClusterSpec(2, bandwidth_gbps=0.3)
        chunks = [500_000, 500_000]
        expected = sum(cluster.latency_s + c / cluster.bytes_per_second for c in chunks)
        assert pipelined_broadcast_time(chunks, cluster) == pytest.approx(expected)

    def test_validates_inputs(self):
        cluster = ClusterSpec(4)
        with pytest.raises(ValueError):
            pipelined_broadcast_time([], cluster)
        with pytest.raises(ValueError):
            pipelined_broadcast_time([-1.0], cluster)
        assert pipelined_broadcast_time([1000], ClusterSpec(1)) == 0.0

    def test_rejoin_recovery_cheaper_under_overlap(self):
        """With failures guaranteed, the overlap trainer's recovery events
        carry strictly smaller modeled costs (multi-bucket tiling) while
        remaining aligned one-to-one with the monolithic trainer's."""
        spec = "seed=7,failure=0.2:rejoin:0.1"
        m0, t0, l0 = make_trainer(False, faults=spec)
        m1, t1, l1 = make_trainer(True, faults=spec)
        tl0 = t0.train_epoch(l0)
        tl1 = t1.train_epoch(l1)
        rec0 = [e for e in t0.faults.events if e.kind == "recovery"]
        rec1 = [e for e in t1.faults.events if e.kind == "recovery"]
        assert len(rec0) == len(rec1) > 0
        assert len(t1._ensure_buckets()) > 1
        for a, b in zip(rec0, rec1):
            assert (a.iteration, a.entity) == (b.iteration, b.entity)
            assert b.value < a.value
        assert tl1.other < tl0.other
        # Numerics are unaffected by how the recovery wire time is modeled.
        for a, b in zip(m0.parameters(), m1.parameters()):
            assert np.array_equal(a.data, b.data)
