"""Chaos suite: seeded fault injection for the distributed simulator.

Covers the fault-spec grammar, injector determinism, each fault dimension
(stragglers, link degradation, message drop/retry/backoff, worker
failure + recovery), the typed timeout error, cost-model degradation, and
the zero-overhead off path.
"""

import json

import numpy as np
import pytest

from repro.data import DataLoader, shard_dataset
from repro.distributed import (
    AllWorkersLostError,
    ClusterSpec,
    CollectiveTimeoutError,
    DistributedError,
    DistributedTrainer,
    DropSpec,
    FailureSpec,
    FaultInjector,
    FaultSpec,
    FaultSpecError,
    LinkSpec,
    StragglerSpec,
    allgather_time,
    parameter_server_time,
    parse_fault_spec,
    ring_allreduce_time,
)
from repro.models import MLP
from repro.observability import metrics as obs_metrics
from repro.observability import observe
from repro.optim import SGD
from repro.utils import set_seed


@pytest.fixture
def metrics_registry():
    """Fresh registry with collection on; restores the off default."""
    obs_metrics.REGISTRY.reset()
    with observe(tracing=False):
        yield obs_metrics.REGISTRY
    obs_metrics.REGISTRY.reset()


def make_trainer(n_nodes=4, faults=None, seed=0, hidden=8, latency_s=50e-6):
    set_seed(seed)
    model = MLP(6, [hidden], 3)
    return DistributedTrainer(
        model,
        SGD(model.parameters(), lr=0.1),
        ClusterSpec(n_nodes, bandwidth_gbps=1.0, latency_s=latency_s),
        faults=faults,
    )


def make_loaders(rng, n_nodes=4, per_worker=8, batch=4):
    x = rng.standard_normal((n_nodes * per_worker, 6)).astype(np.float32)
    y = rng.integers(0, 3, n_nodes * per_worker)
    return [DataLoader(sx, sy, batch) for sx, sy in shard_dataset(x, y, n_nodes)]


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestFaultSpecParsing:
    def test_compact_full_grammar(self):
        spec = parse_fault_spec(
            "seed=42,straggler=lognormal:0.2:0.5:1.5,drop=0.01:5:0.1:0.02,"
            "link=0.05:0.25:3,failure=0.002:shrink:2.0"
        )
        assert spec.seed == 42
        assert spec.straggler == StragglerSpec("lognormal", 0.2, 0.5, 1.5)
        assert spec.drop == DropSpec(0.01, 5, 0.1, 0.02)
        assert spec.link == LinkSpec(0.05, 0.25, 3)
        assert spec.failure == FailureSpec(0.002, "shrink", 2.0)

    def test_compact_partial_fields_get_defaults(self):
        spec = parse_fault_spec("drop=0.1")
        assert spec.drop.prob == 0.1
        assert spec.drop.max_retries == DropSpec().max_retries
        assert spec.straggler.kind == "none"

    def test_bare_straggler_kind_always_fires(self):
        spec = parse_fault_spec("straggler=constant")
        assert spec.straggler.prob == 1.0

    def test_inline_json(self):
        spec = parse_fault_spec(
            json.dumps({"seed": 7, "drop": {"prob": 0.5, "max_retries": 1}})
        )
        assert spec.seed == 7
        assert spec.drop == DropSpec(0.5, 1)

    def test_json_file(self, tmp_path):
        p = tmp_path / "faults.json"
        p.write_text(json.dumps({"link": {"prob": 0.3, "factor": 0.5}}))
        spec = parse_fault_spec(str(p))
        assert spec.link.prob == 0.3
        assert spec.link.factor == 0.5

    def test_unknown_key_raises(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("gremlins=0.5")

    def test_unknown_section_field_raises(self):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict({"drop": {"probability": 0.1}})

    def test_bad_numeric_raises(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("drop=lots")

    def test_empty_spec_raises(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("  ")

    def test_roundtrip_through_dict(self):
        spec = parse_fault_spec("seed=3,straggler=heavytail:0.1:2.0,failure=0.01")
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_active_flag(self):
        assert not FaultSpec().active
        assert not parse_fault_spec("seed=5").active
        assert parse_fault_spec("drop=0.1").active
        assert parse_fault_spec("straggler=constant:0.5").active


class TestSpecValidation:
    def test_bad_straggler_kind(self):
        with pytest.raises(FaultSpecError):
            StragglerSpec(kind="uniform")

    def test_probability_ranges(self):
        with pytest.raises(FaultSpecError):
            StragglerSpec("constant", prob=1.5)
        with pytest.raises(FaultSpecError):
            DropSpec(prob=-0.1)
        with pytest.raises(FaultSpecError):
            LinkSpec(prob=2.0)
        with pytest.raises(FaultSpecError):
            FailureSpec(prob=-1.0)

    def test_link_factor_and_duration(self):
        with pytest.raises(FaultSpecError):
            LinkSpec(prob=0.1, factor=0.0)
        with pytest.raises(FaultSpecError):
            LinkSpec(prob=0.1, factor=1.5)
        with pytest.raises(FaultSpecError):
            LinkSpec(prob=0.1, duration=0)

    def test_backoff_multiplier_floor(self):
        with pytest.raises(FaultSpecError):
            DropSpec(prob=0.1, backoff_multiplier=0.5)

    def test_bad_recovery_policy(self):
        with pytest.raises(FaultSpecError):
            FailureSpec(prob=0.1, recovery="reboot")

    def test_fault_spec_error_is_distributed_and_value_error(self):
        assert issubclass(FaultSpecError, DistributedError)
        assert issubclass(FaultSpecError, ValueError)


# ---------------------------------------------------------------------------
# Injector determinism
# ---------------------------------------------------------------------------

CHAOS = FaultSpec(
    seed=11,
    straggler=StragglerSpec("lognormal", prob=0.4, scale=0.5, sigma=1.0),
    link=LinkSpec(prob=0.2, factor=0.25, duration=2),
    drop=DropSpec(prob=0.1, max_retries=6),
    failure=FailureSpec(prob=0.05, recovery="rejoin", recovery_s=0.5),
)


class TestInjectorDeterminism:
    def test_same_seed_same_draws(self):
        a, b = FaultInjector(CHAOS), FaultInjector(CHAOS)
        for it in range(20):
            for w in range(4):
                assert a.compute_multiplier(it, w) == b.compute_multiplier(it, w)
                assert a.worker_failed(it, w) == b.worker_failed(it, w)
            assert a.link_factor(it) == b.link_factor(it)
        assert a.timeline() == b.timeline()

    def test_query_order_does_not_matter(self):
        a, b = FaultInjector(CHAOS), FaultInjector(CHAOS)
        fwd = [a.compute_multiplier(it, w) for it in range(10) for w in range(4)]
        rev = [
            b.compute_multiplier(it, w)
            for it in reversed(range(10))
            for w in reversed(range(4))
        ]
        assert fwd == list(reversed(rev))

    def test_different_seed_differs(self):
        a = FaultInjector(CHAOS)
        b = FaultInjector(FaultSpec(seed=99, straggler=CHAOS.straggler,
                                    link=CHAOS.link, drop=CHAOS.drop,
                                    failure=CHAOS.failure))
        draws_a = [a.compute_multiplier(it, 0) for it in range(50)]
        draws_b = [b.compute_multiplier(it, 0) for it in range(50)]
        assert draws_a != draws_b

    def test_event_timeline_json_stable(self):
        def capture():
            inj = FaultInjector(CHAOS)
            for it in range(15):
                inj.link_factor(it)
                for w in range(4):
                    inj.compute_multiplier(it, w)
                    inj.worker_failed(it, w)
                inj.collective_penalty("allreduce", it, 6)
            return json.dumps(inj.timeline(), sort_keys=True)

        assert capture() == capture()

    def test_ops_draw_independently(self):
        inj = FaultInjector(FaultSpec(seed=0, drop=DropSpec(prob=0.5, max_retries=100)))
        pa = [inj.message_penalty("push", it, 0) for it in range(40)]
        pb = [inj.message_penalty("pull", it, 0) for it in range(40)]
        assert pa != pb  # op name is part of the RNG key


# ---------------------------------------------------------------------------
# Stragglers
# ---------------------------------------------------------------------------


class TestStragglers:
    def test_none_kind_is_identity(self):
        inj = FaultInjector(FaultSpec(seed=1))
        assert inj.compute_multiplier(0, 0) == 1.0
        assert inj.events == []

    def test_zero_prob_never_fires(self):
        inj = FaultInjector(
            FaultSpec(seed=1, straggler=StragglerSpec("constant", prob=0.0, scale=9.0))
        )
        assert all(inj.compute_multiplier(it, 0) == 1.0 for it in range(100))

    def test_constant_multiplier(self):
        inj = FaultInjector(
            FaultSpec(seed=1, straggler=StragglerSpec("constant", prob=1.0, scale=0.75))
        )
        assert inj.compute_multiplier(3, 2) == pytest.approx(1.75)

    @pytest.mark.parametrize("kind", ["lognormal", "heavytail"])
    def test_random_kinds_slow_down(self, kind):
        inj = FaultInjector(
            FaultSpec(seed=2, straggler=StragglerSpec(kind, prob=1.0, scale=1.0))
        )
        mults = [inj.compute_multiplier(it, 0) for it in range(50)]
        assert all(m > 1.0 for m in mults)
        assert len(set(mults)) > 1  # actually a distribution

    def test_heavytail_has_heavier_tail_than_lognormal(self):
        def p99(kind, sigma):
            inj = FaultInjector(
                FaultSpec(seed=3, straggler=StragglerSpec(kind, 1.0, 1.0, sigma))
            )
            xs = sorted(inj.compute_multiplier(it, 0) for it in range(400))
            return xs[int(0.99 * len(xs))]

        assert p99("heavytail", 1.0) > p99("lognormal", 1.0)

    def test_events_recorded_per_straggle(self):
        inj = FaultInjector(
            FaultSpec(seed=4, straggler=StragglerSpec("constant", prob=1.0, scale=1.0))
        )
        for it in range(5):
            inj.compute_multiplier(it, 1)
        kinds = [e.kind for e in inj.events]
        assert kinds == ["straggler"] * 5
        assert all(e.entity == 1 for e in inj.events)


# ---------------------------------------------------------------------------
# Link degradation
# ---------------------------------------------------------------------------


class TestLinkDegradation:
    def test_zero_prob_nominal(self):
        inj = FaultInjector(FaultSpec(seed=1))
        assert all(inj.link_factor(it) == 1.0 for it in range(50))

    def test_certain_episode_degrades(self):
        inj = FaultInjector(FaultSpec(seed=1, link=LinkSpec(prob=1.0, factor=0.5)))
        assert inj.link_factor(0) == 0.5

    def test_duration_extends_episode(self):
        base = FaultInjector(FaultSpec(seed=5, link=LinkSpec(prob=0.15, duration=1)))
        long = FaultInjector(FaultSpec(seed=5, link=LinkSpec(prob=0.15, duration=4)))
        n_base = sum(base.link_factor(it) < 1.0 for it in range(200))
        n_long = sum(long.link_factor(it) < 1.0 for it in range(200))
        assert n_long > n_base

    def test_memoized_single_event_per_iteration(self):
        inj = FaultInjector(FaultSpec(seed=1, link=LinkSpec(prob=1.0, factor=0.5)))
        for _ in range(5):
            inj.link_factor(7)
        assert len([e for e in inj.events if e.kind == "link"]) == 1


# ---------------------------------------------------------------------------
# Message drop / retry / backoff / timeout
# ---------------------------------------------------------------------------


class TestDropRetry:
    def test_zero_prob_zero_penalty(self):
        inj = FaultInjector(FaultSpec(seed=1))
        assert inj.message_penalty("allreduce", 0, 0) == 0.0
        assert inj.collective_penalty("allreduce", 0, 100) == 0.0

    def test_penalty_deterministic(self):
        spec = FaultSpec(seed=6, drop=DropSpec(prob=0.3, max_retries=50))
        a = [FaultInjector(spec).collective_penalty("allreduce", it, 10) for it in range(5)]
        b = [FaultInjector(spec).collective_penalty("allreduce", it, 10) for it in range(5)]
        assert a == b

    def test_backoff_grows_exponentially(self):
        # prob=1 with a huge retry budget: every attempt drops, so the
        # recorded backoffs are base * mult**attempt exactly.
        inj = FaultInjector(
            FaultSpec(
                seed=1,
                drop=DropSpec(prob=1.0, max_retries=4, timeout_s=0.0,
                              backoff_base_s=0.01, backoff_multiplier=3.0),
            )
        )
        with pytest.raises(CollectiveTimeoutError):
            inj.message_penalty("allreduce", 0, 0)
        backoffs = [e.value for e in inj.events if e.kind == "drop"]
        assert backoffs == pytest.approx([0.01 * 3.0**a for a in range(5)])

    def test_timeout_error_carries_context(self):
        inj = FaultInjector(
            FaultSpec(seed=1, drop=DropSpec(prob=1.0, max_retries=2, timeout_s=0.1))
        )
        with pytest.raises(CollectiveTimeoutError) as ei:
            inj.message_penalty("allgather", 9, 0)
        err = ei.value
        assert err.op == "allgather"
        assert err.iteration == 9
        assert err.attempts == 3
        assert err.elapsed_s > 0.3  # three timeouts + backoff

    def test_timeout_is_typed(self):
        assert issubclass(CollectiveTimeoutError, DistributedError)
        assert issubclass(CollectiveTimeoutError, TimeoutError)

    def test_timeout_event_logged_before_raise(self):
        inj = FaultInjector(FaultSpec(seed=1, drop=DropSpec(prob=1.0, max_retries=0)))
        with pytest.raises(CollectiveTimeoutError):
            inj.message_penalty("allreduce", 0, 0)
        assert [e.kind for e in inj.events] == ["drop", "timeout"]

    def test_penalty_includes_timeout_wait(self):
        # Every drop costs timeout_s + backoff; with backoff 0 the penalty
        # is exactly (number of drops) * timeout_s.
        inj = FaultInjector(
            FaultSpec(seed=8, drop=DropSpec(prob=0.5, max_retries=1000,
                                            timeout_s=1.0, backoff_base_s=0.0))
        )
        penalty = inj.collective_penalty("allreduce", 0, 50)
        drops = len([e for e in inj.events if e.kind == "drop"])
        assert penalty == pytest.approx(float(drops))
        assert drops > 0


# ---------------------------------------------------------------------------
# Numerics and the parameter server under faults
# ---------------------------------------------------------------------------


class TestFaultyCollectives:
    def test_allreduce_numerics_unchanged(self):
        """Dropped-and-retried ring messages delay the wire; the averaged
        update is byte-identical to the fault-free run."""
        plain = make_trainer(faults=None, seed=5)
        tl_plain = plain.train_epoch(make_loaders(np.random.default_rng(10)))
        drops = FaultSpec(seed=2, drop=DropSpec(prob=0.3, max_retries=100))
        faulty = make_trainer(faults=drops, seed=5)
        tl_faulty = faulty.train_epoch(make_loaders(np.random.default_rng(10)))
        assert any(e.kind == "drop" for e in faulty.faults.events)
        assert tl_faulty.comm > tl_plain.comm
        for p1, p2 in zip(plain.model.parameters(), faulty.model.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_parameter_server_degradation_scales(self):
        c = ClusterSpec(8, latency_s=0)
        assert parameter_server_time(1e6, c, degradation=0.5) == pytest.approx(
            2 * parameter_server_time(1e6, c)
        )
        with pytest.raises(ValueError):
            parameter_server_time(1e6, c, degradation=0.0)


# ---------------------------------------------------------------------------
# Cost model under degradation
# ---------------------------------------------------------------------------


class TestCostModelDegradationCache:
    def test_degradation_changes_cost(self):
        c = ClusterSpec(8, latency_s=0)
        assert ring_allreduce_time(1e6, c, 0.25) == pytest.approx(
            4 * ring_allreduce_time(1e6, c)
        )
        assert allgather_time(1e6, c, 0.5) == pytest.approx(
            2 * allgather_time(1e6, c)
        )

    def test_invalid_degradation_rejected(self):
        c = ClusterSpec(4)
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                ring_allreduce_time(1e6, c, bad)

    def test_degraded_value_cached_correctly(self):
        # A degraded evaluation repeats exactly and never aliases the
        # nominal one.
        c = ClusterSpec(8, latency_s=0)
        first = ring_allreduce_time(1e6, c, 0.25)
        again = ring_allreduce_time(1e6, c, 0.25)
        nominal = ring_allreduce_time(1e6, c)
        assert first == again
        assert first == pytest.approx(4 * nominal)


# ---------------------------------------------------------------------------
# Trainer integration: stragglers, failures, recovery, off path
# ---------------------------------------------------------------------------


class TestTrainerWithFaults:
    def test_inactive_spec_matches_no_faults_exactly(self, rng):
        """Zero-probability faults: identical weights and identical modeled
        comm (the off path is untouched)."""
        loaders = make_loaders(np.random.default_rng(0))
        plain = make_trainer(faults=None, seed=42)
        tl_plain = plain.train_epoch(loaders)

        loaders = make_loaders(np.random.default_rng(0))
        chaosless = make_trainer(faults=FaultSpec(seed=9), seed=42)
        tl_off = chaosless.train_epoch(loaders)

        assert tl_off.comm == pytest.approx(tl_plain.comm)
        for (n1, p1), (n2, p2) in zip(
            plain.model.named_parameters(), chaosless.model.named_parameters()
        ):
            assert np.array_equal(p1.data, p2.data), n1
        assert chaosless.faults.events == []

    def test_straggler_inflates_compute(self):
        loaders = make_loaders(np.random.default_rng(1))
        slow_spec = FaultSpec(
            seed=1, straggler=StragglerSpec("constant", prob=1.0, scale=50.0)
        )
        fast = make_trainer(faults=None, seed=7)
        tl_fast = fast.train_epoch(make_loaders(np.random.default_rng(1)))
        slow = make_trainer(faults=slow_spec, seed=7)
        tl_slow = slow.train_epoch(loaders)
        assert tl_slow.compute > 10 * tl_fast.compute

    def test_degraded_link_inflates_comm(self):
        # latency 0 so the bandwidth term (the one degradation scales) is
        # the whole comm cost: factor 0.1 must inflate comm exactly 10x.
        always_degraded = FaultSpec(seed=1, link=LinkSpec(prob=1.0, factor=0.1))
        base = make_trainer(faults=None, seed=7, latency_s=0.0)
        tl_base = base.train_epoch(make_loaders(np.random.default_rng(2)))
        degraded = make_trainer(faults=always_degraded, seed=7, latency_s=0.0)
        tl_deg = degraded.train_epoch(make_loaders(np.random.default_rng(2)))
        assert tl_deg.comm == pytest.approx(10 * tl_base.comm)

    def test_shrink_removes_workers_permanently(self):
        spec = FaultSpec(seed=13, failure=FailureSpec(prob=0.3, recovery="shrink"))
        trainer = make_trainer(faults=spec, seed=7)
        trainer.train_epoch(make_loaders(np.random.default_rng(3), per_worker=8))
        # Replay the injector's draws over the iterations actually run to
        # know exactly who must have died.
        oracle = FaultInjector(spec)
        expected = list(range(4))
        for it in range(trainer._global_iteration):
            for w in list(expected):
                if oracle.worker_failed(it, w):
                    expected.remove(w)
        assert trainer._active == expected
        assert len(expected) < 4  # the seed really kills someone

    def test_rejoin_restores_world_size(self):
        spec = FaultSpec(
            seed=21, failure=FailureSpec(prob=0.3, recovery="rejoin", recovery_s=0.25)
        )
        trainer = make_trainer(faults=spec, seed=7)
        tl = trainer.train_epoch(make_loaders(np.random.default_rng(4), per_worker=8))
        n_failures = len([e for e in trainer.faults.events if e.kind == "failure"])
        n_recoveries = len([e for e in trainer.faults.events if e.kind == "recovery"])
        assert n_failures > 0
        assert n_recoveries == n_failures
        # Every failed worker is back in (or queued to rejoin next iteration).
        assert sorted(trainer._active + trainer._rejoining) == [0, 1, 2, 3]
        # Downtime was charged: recovery_s plus a model broadcast per failure.
        assert tl.other >= n_failures * 0.25

    def test_rejoin_charges_recovery_time(self):
        spec = FaultSpec(
            seed=21, failure=FailureSpec(prob=0.3, recovery="rejoin", recovery_s=5.0)
        )
        trainer = make_trainer(faults=spec, seed=7)
        tl = trainer.train_epoch(make_loaders(np.random.default_rng(4), per_worker=8))
        recovery = [e.value for e in trainer.faults.events if e.kind == "recovery"]
        assert tl.other == pytest.approx(sum(recovery))
        assert all(r > 5.0 for r in recovery)  # downtime + broadcast

    def test_all_workers_lost_raises(self):
        spec = FaultSpec(seed=1, failure=FailureSpec(prob=1.0, recovery="shrink"))
        trainer = make_trainer(faults=spec, seed=7)
        with pytest.raises(AllWorkersLostError):
            trainer.train_epoch(make_loaders(np.random.default_rng(5)))

    def test_exhausted_retries_surface_typed_error(self):
        spec = FaultSpec(seed=1, drop=DropSpec(prob=1.0, max_retries=2))
        trainer = make_trainer(faults=spec, seed=7)
        before = [p.data.copy() for p in trainer.model.parameters()]
        with pytest.raises(CollectiveTimeoutError):
            trainer.train_epoch(make_loaders(np.random.default_rng(6)))
        # No partial update applied for the failed iteration.
        for p, b in zip(trainer.model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_timeline_faults_summary_populated(self):
        spec = FaultSpec(
            seed=11, straggler=StragglerSpec("constant", prob=1.0, scale=1.0)
        )
        trainer = make_trainer(faults=spec, seed=7)
        tl = trainer.train_epoch(make_loaders(np.random.default_rng(7)))
        assert tl.faults["events"] > 0
        assert tl.faults["by_kind"]["straggler"] > 0
        assert "faults" in tl.as_dict()

    def test_no_faults_timeline_dict_shape_unchanged(self):
        trainer = make_trainer(faults=None, seed=7)
        tl = trainer.train_epoch(make_loaders(np.random.default_rng(8)))
        assert tl.faults == {}
        assert set(tl.as_dict()) == {
            "compute", "encode", "comm", "decode", "other", "total",
        }

    def test_shrunk_ring_communicates_cheaper(self):
        # Comparing modeled comm directly: a 2-node ring is cheaper than a
        # 4-node ring for the same payload.
        spec = FaultSpec(seed=13, failure=FailureSpec(prob=0.2, recovery="shrink"))
        trainer = make_trainer(faults=spec, seed=7, latency_s=0.01)
        trainer.train_epoch(make_loaders(np.random.default_rng(9), per_worker=8))
        world = len(trainer._active)
        assert world < 4
        nbytes = trainer._model_bytes()
        assert ring_allreduce_time(nbytes, ClusterSpec(world, 1.0, 0.01)) < (
            ring_allreduce_time(nbytes, ClusterSpec(4, 1.0, 0.01))
        )


# ---------------------------------------------------------------------------
# Observability integration
# ---------------------------------------------------------------------------


class TestFaultMetrics:
    def test_injected_counter_by_kind(self, metrics_registry):
        inj = FaultInjector(
            FaultSpec(seed=4, straggler=StragglerSpec("constant", prob=1.0, scale=1.0))
        )
        for it in range(6):
            inj.compute_multiplier(it, 0)
        assert metrics_registry.counter("faults.injected").value == 6

    def test_retry_and_backoff_counters(self, metrics_registry):
        inj = FaultInjector(
            FaultSpec(seed=8, drop=DropSpec(prob=0.5, max_retries=1000,
                                            timeout_s=0.0, backoff_base_s=0.01,
                                            backoff_multiplier=1.0))
        )
        inj.collective_penalty("allreduce", 0, 50)
        retries = metrics_registry.counter("faults.retries").value
        assert retries > 0
        assert metrics_registry.counter("faults.backoff_ms").value == pytest.approx(
            retries * 10.0
        )

    def test_recovery_time_histogram(self, metrics_registry):
        spec = FaultSpec(
            seed=21, failure=FailureSpec(prob=0.3, recovery="rejoin", recovery_s=0.5)
        )
        trainer = make_trainer(faults=spec, seed=7)
        trainer.train_epoch(make_loaders(np.random.default_rng(4), per_worker=8))
        hist = metrics_registry.histogram("faults.recovery_time")
        assert hist.count == len(
            [e for e in trainer.faults.events if e.kind == "recovery"]
        )
        assert hist.sum > 0

    def test_counters_silent_when_collection_off(self):
        obs_metrics.REGISTRY.reset()
        assert not obs_metrics.COLLECT
        inj = FaultInjector(
            FaultSpec(seed=4, straggler=StragglerSpec("constant", prob=1.0, scale=1.0))
        )
        inj.compute_multiplier(0, 0)
        assert obs_metrics.REGISTRY.counters() == {}
        assert len(inj.events) == 1  # event log still records
