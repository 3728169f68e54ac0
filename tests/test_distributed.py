"""Distributed simulator: cost models, the exact allreduce mean, and exact
equivalence between simulated data-parallel SGD and centralized SGD."""

import numpy as np
import pytest

from repro import nn
from repro.compression import Signum
from repro.data import DataLoader, shard_dataset
from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    allgather_time,
    allreduce_mean,
    broadcast_time,
    ring_allreduce_time,
)
from repro.models import MLP
from repro.optim import SGD
from repro.tensor import Tensor


class TestCostModel:
    def test_single_node_free(self):
        c = ClusterSpec(1)
        assert ring_allreduce_time(1e9, c) == 0.0
        assert allgather_time(1e9, c) == 0.0

    def test_ring_allreduce_bandwidth_term_saturates(self):
        # 2(p-1)/p approaches 2: doubling nodes barely changes bandwidth cost.
        m = 100e6
        t8 = ring_allreduce_time(m, ClusterSpec(8, latency_s=0))
        t64 = ring_allreduce_time(m, ClusterSpec(64, latency_s=0))
        assert t64 / t8 < 1.15

    def test_allgather_scales_linearly_with_nodes(self):
        m = 1e6
        t4 = allgather_time(m, ClusterSpec(4, latency_s=0))
        t16 = allgather_time(m, ClusterSpec(16, latency_s=0))
        assert t16 / t4 == pytest.approx(5.0, rel=1e-6)  # (16-1)/(4-1)

    def test_latency_term_grows_with_nodes(self):
        t2 = ring_allreduce_time(0, ClusterSpec(2))
        t16 = ring_allreduce_time(0, ClusterSpec(16))
        assert t16 > t2 > 0

    def test_compressed_allgather_can_lose_to_allreduce(self):
        # The Appendix-F effect: a 32x-compressed allgather still loses to a
        # full-size ring allreduce at large node counts.
        # Crossover: (p-1)/32 vs 2(p-1)/p per byte — equal at p = 64, so the
        # compressed allgather strictly loses beyond 64 nodes.
        c = ClusterSpec(128, latency_s=0)
        m = 100e6
        assert allgather_time(m / 32, c) > ring_allreduce_time(m, c)

    def test_broadcast_log_rounds(self):
        assert broadcast_time(0, ClusterSpec(8)) == pytest.approx(3 * 50e-6)

    def test_invalid_cluster_raises(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
        with pytest.raises(ValueError):
            ClusterSpec(2, bandwidth_gbps=-1)


class TestCollectives:
    def test_allreduce_mean(self):
        vs = [np.ones(4, dtype=np.float32) * i for i in range(4)]
        assert np.allclose(allreduce_mean(vs), 1.5)

    def test_allreduce_empty_raises(self):
        with pytest.raises(ValueError):
            allreduce_mean([])


class TestDistributedEquivalence:
    def test_matches_centralized_sgd_exactly(self, rng):
        """K-shard simulated data-parallel SGD == single-node SGD on the
        combined batch (no BN, so the equivalence is exact)."""

        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = rng.integers(0, 3, 32)

        def fresh_model():
            from repro.utils import set_seed

            set_seed(42)
            return MLP(6, [16], 3)

        # Centralized: full batch of 32.
        central = fresh_model()
        opt_c = SGD(central.parameters(), lr=0.1)
        loss_fn = nn.CrossEntropyLoss()
        logits = central(Tensor(x))
        loss_fn(logits, y).backward()
        opt_c.step()

        # Distributed: 4 workers × 8 examples. Mean-of-shard-means equals
        # the full-batch mean because shards are equal-sized.
        dist = fresh_model()
        opt_d = SGD(dist.parameters(), lr=0.1)
        trainer = DistributedTrainer(dist, opt_d, ClusterSpec(4))
        shards = shard_dataset(x, y, 4)
        loaders = [DataLoader(sx, sy, 8) for sx, sy in shards]
        trainer.train_epoch(loaders)

        for (n1, p1), (n2, p2) in zip(central.named_parameters(), dist.named_parameters()):
            assert np.allclose(p1.data, p2.data, atol=1e-5), n1

    def test_timeline_phases_populated(self, rng):
        model = MLP(6, [8], 3)
        trainer = DistributedTrainer(model, SGD(model.parameters(), lr=0.1), ClusterSpec(2))
        x = rng.standard_normal((16, 6)).astype(np.float32)
        y = rng.integers(0, 3, 16)
        loaders = [DataLoader(sx, sy, 8) for sx, sy in shard_dataset(x, y, 2)]
        tl = trainer.train_epoch(loaders)
        assert tl.compute > 0 and tl.comm > 0
        assert tl.iterations == 1
        assert tl.total == pytest.approx(
            tl.compute + tl.encode + tl.comm + tl.decode + tl.other
        )

    def test_loader_count_mismatch_raises(self, rng):
        model = MLP(4, [4], 2)
        trainer = DistributedTrainer(model, SGD(model.parameters(), lr=0.1), ClusterSpec(4))
        with pytest.raises(ValueError):
            trainer.train_epoch([])

    def test_signum_charged_allgather(self, rng):
        # Signum's modeled comm must grow with node count; SGD's ring
        # allreduce stays ~flat (bandwidth term saturates).
        def run(n_nodes, compressor_cls):
            model = MLP(6, [32], 3)
            comp = compressor_cls(n_nodes)
            trainer = DistributedTrainer(
                model, SGD(model.parameters(), lr=0.1), ClusterSpec(n_nodes, latency_s=0),
                compressor=comp,
            )
            x = rng.standard_normal((n_nodes * 4, 6)).astype(np.float32)
            y = rng.integers(0, 3, n_nodes * 4)
            loaders = [DataLoader(sx, sy, 4) for sx, sy in shard_dataset(x, y, n_nodes)]
            return trainer.train_epoch(loaders).comm

        sig4, sig16 = run(4, Signum), run(16, Signum)
        assert sig16 / sig4 == pytest.approx(5.0, rel=0.01)

    def test_flat_vs_per_layer_latency(self, rng):
        # Section 4.1: one flat allreduce must beat per-layer allreduces on
        # the latency term.
        x = rng.standard_normal((8, 6)).astype(np.float32)
        y = rng.integers(0, 3, 8)

        def run(flat):
            m = MLP(6, [8, 8, 8], 3)
            t = DistributedTrainer(
                m, SGD(m.parameters(), lr=0.1), ClusterSpec(8), flat_allreduce=flat
            )
            loaders = [DataLoader(sx, sy, 1) for sx, sy in shard_dataset(x, y, 8)]
            return t.train_epoch(loaders).comm

        assert run(flat=True) < run(flat=False)

    def test_pufferfish_model_communicates_less(self, rng):
        # The paper's core claim at the systems level: the factorized model's
        # allreduce payload shrinks proportionally to its parameter count.
        from repro.core import FactorizationConfig, build_hybrid

        model = MLP(32, [64, 64], 4)
        hybrid, report = build_hybrid(model, FactorizationConfig(rank_ratio=0.25))

        def payload(m):
            t = DistributedTrainer(m, SGD(m.parameters(), lr=0.1), ClusterSpec(2))
            x = rng.standard_normal((8, 32)).astype(np.float32)
            y = rng.integers(0, 4, 8)
            loaders = [DataLoader(sx, sy, 4) for sx, sy in shard_dataset(x, y, 2)]
            tl = t.train_epoch(loaders)
            return tl.bytes_per_iteration

        assert payload(hybrid) / payload(model) == pytest.approx(
            report.params_after / report.params_before, rel=1e-6
        )


class TestGradientHandOff:
    """The trainer moves each worker's ``p.grad`` arrays into its gradient
    list instead of copying them; nothing live may still point at them."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_no_payload_array_aliases_a_live_grad(self, rng, overlap):
        from repro.compression import PowerSGD

        model = MLP(6, [8, 8], 3)
        params = list(model.parameters())
        comp = PowerSGD(2, rank=2)
        seen = []

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v)

        def assert_no_alias(results):
            payload = [a for r in results for a in arrays(r.payload)]
            seen.append(len(payload))
            for p in params:
                if p.grad is not None:
                    assert not any(np.shares_memory(p.grad, a) for a in payload)

        decode = comp.decode_aggregate

        def checked_decode(results):
            # Decode runs while the last worker's backward is the most
            # recent one: its gradients must have left the model too.
            assert_no_alias(results)
            return decode(results)

        comp.decode_aggregate = checked_decode
        trainer = DistributedTrainer(
            model, SGD(params, lr=0.1), ClusterSpec(2), compressor=comp,
            overlap=overlap, bucket_mb=1e-4,
        )
        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = rng.integers(0, 3, 32)
        loaders = [DataLoader(sx, sy, 8) for sx, sy in shard_dataset(x, y, 2)]
        trainer.train_epoch(loaders)
        assert seen and all(n > 0 for n in seen)
        # After the step every p.grad is the decoded mean: a matrix's is the
        # m̂ PowerSGD's error feedback keeps, read-only, and no p.grad aliases
        # another.
        grads = [p.grad for p in params]
        assert all(g is not None for g in grads)
        assert [g.flags.writeable for g in grads] == [g.ndim < 2 for g in grads]
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1 :])

    def test_a_borrowed_grad_fails_closed_and_still_sums(self, rng):
        """After a PowerSGD epoch an in-place write to a matrix's ``p.grad``
        raises instead of corrupting the residual, and a backward without
        ``zero_grad`` still adds into it — into a new array, leaving the
        codec's ``m̂`` as it was."""
        from repro.compression import PowerSGD

        model = MLP(6, [8], 3)
        params = list(model.parameters())
        comp = PowerSGD(2, rank=2)
        trainer = DistributedTrainer(model, SGD(params, lr=0.1), ClusterSpec(2), compressor=comp)
        x = rng.standard_normal((16, 6)).astype(np.float32)
        y = rng.integers(0, 3, 16)
        trainer.train_epoch([DataLoader(sx, sy, 8) for sx, sy in shard_dataset(x, y, 2)])
        weight = params[0]
        borrowed = weight.grad
        assert not borrowed.flags.writeable
        before = borrowed.copy()
        with pytest.raises(ValueError, match="read-only"):
            weight.grad *= 2.0
        batch = Tensor(x[:4])
        nn.CrossEntropyLoss()(model(batch), y[:4]).backward()
        fresh = weight.grad
        for p in params:
            p.grad = None
        nn.CrossEntropyLoss()(model(batch), y[:4]).backward()
        assert fresh.tobytes() == (before + weight.grad).tobytes()
        assert fresh.flags.writeable and not np.shares_memory(fresh, borrowed)
        assert borrowed.tobytes() == before.tobytes()

    def test_workers_get_distinct_gradient_buffers(self, rng):
        from repro.distributed.ddp import _take_grads

        model = MLP(6, [8], 3)
        params = list(model.parameters())
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        taken = []
        for _ in range(2):
            nn.CrossEntropyLoss()(model(x), np.zeros(4, dtype=np.int64)).backward()
            taken.append(_take_grads(params))
            assert all(p.grad is None for p in params)
        for a, b in zip(*taken):
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, b)
