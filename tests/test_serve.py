"""The serving subsystem: seeded load generation, dynamic batching,
SLO admission, latency profiles, and the discrete-event simulator.

The determinism tests pin the PR's acceptance criterion: a fixed seed
produces identical request timelines and shed decisions, run after run.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.serve import (
    AdmissionController,
    ArrivalSpec,
    BatchPolicy,
    DynamicBatcher,
    LatencyProfile,
    ServeConfig,
    ServeSimulator,
    generate_arrivals,
)
from repro.serve.admission import SHED_ADMISSION, SHED_DEADLINE
from repro.serve.batcher import Request


@pytest.fixture(autouse=True)
def _registry_clean():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def flat_profile(service_s=0.01):
    """A profile whose per-batch latency is constant — simplest to reason
    about in the simulator tests."""
    return LatencyProfile(batch_sizes=(1, 8), latency_s=(service_s, service_s))


class TestLoadGenerator:
    def test_deterministic_for_fixed_seed(self):
        spec = ArrivalSpec(rate_rps=200, duration_s=3, seed=7)
        a = generate_arrivals(spec)
        b = generate_arrivals(spec)
        assert np.array_equal(a, b)
        assert len(a) > 0

    def test_sorted_and_bounded(self):
        a = generate_arrivals(ArrivalSpec(rate_rps=100, duration_s=2, seed=0))
        assert np.all(np.diff(a) >= 0)
        assert a.min() >= 0 and a.max() < 2.0

    def test_different_seeds_differ(self):
        s = lambda seed: generate_arrivals(ArrivalSpec(rate_rps=100, duration_s=2, seed=seed))
        assert not np.array_equal(s(0), s(1))

    def test_windows_independent_of_duration(self):
        """Counter-keyed draws: extending the run leaves the earlier
        windows' arrivals untouched (same guarantee as the fault
        injector's query-order independence)."""
        short = generate_arrivals(ArrivalSpec(rate_rps=150, duration_s=2, seed=3))
        long = generate_arrivals(ArrivalSpec(rate_rps=150, duration_s=4, seed=3))
        assert np.array_equal(short, long[: len(short)])

    def test_poisson_rate_approximately_matches(self):
        spec = ArrivalSpec(rate_rps=300, duration_s=20, seed=1)
        a = generate_arrivals(spec)
        assert len(a) / spec.duration_s == pytest.approx(300, rel=0.1)

    def test_bursty_mean_rate_normalized(self):
        spec = ArrivalSpec(rate_rps=300, duration_s=40, seed=2, process="bursty")
        a = generate_arrivals(spec)
        # Burst windows run hotter, but the *mean* offered rate matches.
        assert len(a) / spec.duration_s == pytest.approx(300, rel=0.15)
        assert spec.normal_rate_rps < 300

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate_rps=0, duration_s=1)
        with pytest.raises(ValueError):
            ArrivalSpec(rate_rps=10, duration_s=-1)
        with pytest.raises(ValueError):
            ArrivalSpec(rate_rps=10, duration_s=1, process="adversarial")
        with pytest.raises(ValueError):
            ArrivalSpec(rate_rps=10, duration_s=1, burst_factor=0.5)


class TestDynamicBatcher:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1)

    def test_fill_then_take(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=3, max_wait_s=0.01))
        for i in range(3):
            assert not b.full
            b.enqueue(Request(i, 0.001 * i, 1.0))
        assert b.full and b.fill_time() == pytest.approx(0.002)
        batch = b.take()
        assert [r.rid for r in batch] == [0, 1, 2]
        assert len(b) == 0

    def test_flush_deadline_tracks_oldest(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.05))
        assert b.flush_at() == float("inf")
        b.enqueue(Request(0, 1.0, 2.0))
        b.enqueue(Request(1, 1.02, 2.0))
        assert b.flush_at() == pytest.approx(1.05)
        b.take()
        assert b.flush_at() == float("inf")

    def test_take_caps_at_max_batch(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, max_wait_s=0.01))
        for i in range(2):
            b.enqueue(Request(i, 0.0, 1.0))
        assert b.take() == [Request(0, 0.0, 1.0), Request(1, 0.0, 1.0)]

    def test_rejects_out_of_order_arrivals(self):
        b = DynamicBatcher(BatchPolicy())
        b.enqueue(Request(0, 1.0, 2.0))
        with pytest.raises(ValueError):
            b.enqueue(Request(1, 0.5, 2.0))


class TestAdmission:
    def test_admits_when_idle(self):
        ctl = AdmissionController(flat_profile(0.01), BatchPolicy(8, 0.005))
        d = ctl.assess(Request(0, 0.0, 0.1), queue_len=0, earliest_free_s=0.0)
        assert d.admitted and d.reason == "ok"
        assert d.est_completion_s == pytest.approx(0.01)

    def test_sheds_on_deep_queue(self):
        ctl = AdmissionController(flat_profile(0.05), BatchPolicy(1, 0.0))
        # 10 batches ahead at 50 ms each — a 100 ms deadline is hopeless.
        d = ctl.assess(Request(0, 0.0, 0.1), queue_len=10, earliest_free_s=0.0)
        assert not d.admitted and d.reason == SHED_ADMISSION

    def test_busy_replica_delays_start(self):
        ctl = AdmissionController(flat_profile(0.01), BatchPolicy(8, 0.005))
        d = ctl.assess(Request(0, 0.0, 0.1), queue_len=0, earliest_free_s=0.5)
        assert d.est_start_s == pytest.approx(0.5)
        assert not d.admitted


class TestLatencyProfile:
    def test_interpolation_and_extrapolation(self):
        p = LatencyProfile(batch_sizes=(1, 4, 8), latency_s=(0.01, 0.02, 0.03))
        assert p.latency(1) == pytest.approx(0.01)
        assert p.latency(2) == pytest.approx(0.01 + 0.01 / 3)
        assert p.latency(8) == pytest.approx(0.03)
        # Above the grid: marginal-slope extrapolation, never below last.
        assert p.latency(16) == pytest.approx(0.03 + (0.01 / 4) * 8)
        with pytest.raises(ValueError):
            p.latency(0)

    def test_capacity_is_best_throughput(self):
        p = LatencyProfile(batch_sizes=(1, 8), latency_s=(0.01, 0.02))
        assert p.best_batch() == 8
        assert p.capacity_rps() == pytest.approx(8 / 0.02)

    def test_json_round_trip(self, tmp_path):
        p = LatencyProfile(
            batch_sizes=(1, 2), latency_s=(0.001, 0.0015), meta=(("model", "mlp"),)
        )
        path = tmp_path / "prof.json"
        p.save(path)
        q = LatencyProfile.load(path)
        assert q == p

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyProfile(batch_sizes=(2, 1), latency_s=(0.1, 0.2))
        with pytest.raises(ValueError):
            LatencyProfile(batch_sizes=(1,), latency_s=(0.1, 0.2))
        with pytest.raises(ValueError):
            LatencyProfile(batch_sizes=(1, 2), latency_s=(0.1, -0.2))


class TestServeSimulator:
    def test_deterministic_timeline_and_digest(self):
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=400, duration_s=3, seed=0))
        cfg = ServeConfig(slo_s=0.05, policy=BatchPolicy(4, 0.005))
        r1 = ServeSimulator(flat_profile(0.01), cfg).run(arrivals)
        r2 = ServeSimulator(flat_profile(0.01), cfg).run(arrivals)
        assert r1.digest() == r2.digest()
        assert r1.summary() == r2.summary()
        assert r1.n_requests == len(arrivals)

    def test_light_load_nothing_shed(self):
        arrivals = [0.0, 0.2, 0.4, 0.6]
        cfg = ServeConfig(slo_s=0.1, policy=BatchPolicy(4, 0.01))
        report = ServeSimulator(flat_profile(0.005), cfg).run(arrivals)
        assert report.n_completed == 4 and report.n_shed == 0
        assert report.slo_miss_rate == 0.0
        # Each lone request waits out max_wait_s then rides a batch of 1.
        for o in report.outcomes:
            assert o.latency_s == pytest.approx(0.015)

    def test_full_batch_dispatches_before_wait_deadline(self):
        arrivals = [0.0, 0.001, 0.002, 0.003]
        cfg = ServeConfig(slo_s=0.1, policy=BatchPolicy(4, 0.05))
        report = ServeSimulator(flat_profile(0.01), cfg).run(arrivals)
        assert len(report.batches) == 1
        assert report.batches[0].dispatch_s == pytest.approx(0.003)
        assert report.batches[0].size == 4

    def test_hopeless_slo_sheds_at_admission(self):
        arrivals = [0.0, 0.1, 0.2]
        cfg = ServeConfig(slo_s=0.001, policy=BatchPolicy(4, 0.0))
        report = ServeSimulator(flat_profile(0.05), cfg).run(arrivals)
        assert report.n_shed == 3
        assert report.shed_by_reason()[SHED_ADMISSION] == 3
        assert report.n_batches == 0 if hasattr(report, "n_batches") else not report.batches

    def test_deadline_shed_when_wait_exceeds_slo(self):
        """Admission's estimate ignores the batcher's max_wait, so a lone
        request whose SLO is tighter than max_wait + service is admitted
        optimistically and then shed at dispatch — the second shed path."""
        cfg = ServeConfig(slo_s=0.015, policy=BatchPolicy(4, 0.02))
        report = ServeSimulator(flat_profile(0.01), cfg).run([0.0])
        assert report.shed_by_reason()[SHED_DEADLINE] == 1
        assert report.n_completed == 0

    def test_more_replicas_shed_less(self):
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=600, duration_s=3, seed=4))
        policy = BatchPolicy(4, 0.005)
        one = ServeSimulator(
            flat_profile(0.01), ServeConfig(slo_s=0.05, policy=policy, replicas=1)
        ).run(arrivals)
        four = ServeSimulator(
            flat_profile(0.01), ServeConfig(slo_s=0.05, policy=policy, replicas=4)
        ).run(arrivals)
        assert four.shed_rate < one.shed_rate
        assert four.throughput_rps > one.throughput_rps

    def test_faster_profile_higher_throughput_same_load(self):
        """The Pufferfish serving claim in miniature: a uniformly faster
        (factorized) profile sheds less and completes more under an
        offered load that saturates the slower (full-rank) profile."""
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=500, duration_s=4, seed=5))
        cfg = ServeConfig(slo_s=0.05, policy=BatchPolicy(4, 0.005))
        slow = ServeSimulator(flat_profile(0.012), cfg).run(arrivals)
        fast = ServeSimulator(flat_profile(0.008), cfg).run(arrivals)
        assert fast.throughput_rps > slow.throughput_rps
        assert fast.shed_rate < slow.shed_rate

    def test_quantiles_ordered_and_summary_keys(self):
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=300, duration_s=3, seed=6))
        cfg = ServeConfig(slo_s=0.08, policy=BatchPolicy(8, 0.01))
        s = ServeSimulator(flat_profile(0.01), cfg).run(arrivals).summary()
        assert s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"]
        assert s["n_requests"] == s["n_completed"] + s["n_shed_admission"] + s["n_shed_deadline"]
        assert 0.0 <= s["shed_rate"] <= 1.0
        assert len(s["timeline_digest"]) == 16

    def test_rejects_unsorted_arrivals(self):
        cfg = ServeConfig(slo_s=0.1)
        with pytest.raises(ValueError):
            ServeSimulator(flat_profile(), cfg).run([0.2, 0.1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(slo_s=0.0)
        with pytest.raises(ValueError):
            ServeConfig(slo_s=0.1, replicas=0)

    def test_metrics_flow_through_registry(self):
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=400, duration_s=2, seed=8))
        cfg = ServeConfig(slo_s=0.03, policy=BatchPolicy(4, 0.005))
        with obs.observe(tracing=False):
            report = ServeSimulator(flat_profile(0.012), cfg).run(arrivals)
        snap = obs.get_registry().snapshot()
        counters = snap["counters"]
        assert counters["serve.requests"] == report.n_requests
        assert counters["serve.completed"] == report.n_completed
        shed = report.shed_by_reason()
        for reason, n in shed.items():
            if n:
                assert counters[f"serve.shed{{reason={reason}}}"] == n
        assert snap["gauges"]["serve.shed_rate"] == pytest.approx(report.shed_rate)
        assert snap["gauges"]["serve.throughput_rps"] == pytest.approx(
            report.throughput_rps
        )
        assert "serve.latency_ms" in snap["histograms"]

    def test_pool_gauges_match_run_summary(self):
        """The live per-pool gauges are the autoscaler's input signal;
        at run end they must equal the report summary exactly — not a
        separate end-of-run accounting path."""
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=500, duration_s=2, seed=3))
        cfg = ServeConfig(slo_s=0.03, policy=BatchPolicy(4, 0.005), replicas=2)
        with obs.observe(tracing=False):
            report = ServeSimulator(flat_profile(0.012), cfg, pool="edge").run(
                arrivals, duration_s=2.0
            )
        gauges = obs.get_registry().snapshot()["gauges"]
        assert gauges["serve.pool.shed_rate{pool=edge}"] == pytest.approx(
            report.shed_rate
        )
        assert gauges["serve.pool.utilization{pool=edge}"] == pytest.approx(
            report.utilization
        )
        assert gauges["serve.pool.replicas{pool=edge}"] == 2
        assert report.summary()["utilization"] == pytest.approx(
            report.utilization, abs=1e-6
        )
        assert 0.0 < report.utilization <= 1.0

    def test_pools_keep_separate_gauges(self):
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=200, duration_s=1, seed=3))
        cfg = ServeConfig(slo_s=0.05, policy=BatchPolicy(8, 0.005))
        with obs.observe(tracing=False):
            ra = ServeSimulator(flat_profile(0.001), cfg, pool="a").run(arrivals, 1.0)
            rb = ServeSimulator(flat_profile(0.030), cfg, pool="b").run(arrivals, 1.0)
        gauges = obs.get_registry().snapshot()["gauges"]
        assert gauges["serve.pool.shed_rate{pool=a}"] == pytest.approx(ra.shed_rate)
        assert gauges["serve.pool.shed_rate{pool=b}"] == pytest.approx(rb.shed_rate)
        assert rb.shed_rate > ra.shed_rate


class TestInputSpecs:
    def test_image_spec_batch_shape(self):
        from repro.serve import InputSpec

        rng = np.random.default_rng(0)
        (x,) = InputSpec("image", (3, 8, 8)).example_batch(4, rng)
        assert x.data.shape == (4, 3, 8, 8)

    def test_token_spec_time_major(self):
        from repro.serve import InputSpec

        rng = np.random.default_rng(0)
        (tokens,) = InputSpec("tokens", (16,), vocab_size=50).example_batch(3, rng)
        assert tokens.shape == (16, 3)  # (T, B) — the LSTM convention
        assert tokens.min() >= 1 and tokens.max() < 50

    def test_seq2seq_spec_two_streams(self):
        from repro.serve import InputSpec

        rng = np.random.default_rng(0)
        src, tgt = InputSpec("seq2seq", (12,), vocab_size=50).example_batch(2, rng)
        assert src.shape == (2, 12) and tgt.shape == (2, 12)

    def test_validation(self):
        from repro.serve import InputSpec

        with pytest.raises(ValueError):
            InputSpec("video", (3, 8, 8))
        with pytest.raises(ValueError):
            InputSpec("tokens", (16,))  # vocab required
        with pytest.raises(ValueError):
            InputSpec("tokens", (16, 2), vocab_size=50)

    def test_round_trip(self):
        from repro.serve import InputSpec

        spec = InputSpec("tokens", (16,), vocab_size=50)
        assert InputSpec.from_dict(spec.to_dict()) == spec


class TestSequenceServing:
    """Satellite: the LSTM/Transformer zoo is servable end to end."""

    def test_registry_covers_sequence_models(self):
        from repro.serve import default_registry
        from repro.serve.registry import IMAGE_MODELS, SEQUENCE_MODELS

        registry = default_registry()
        for name in IMAGE_MODELS + SEQUENCE_MODELS:
            assert registry.materialize(name, "full", width=0.25).variant == "full"
        fresh = default_registry()
        with pytest.raises(ValueError, match="unknown model 'nope'"):
            fresh.materialize("nope", "full")
        assert not fresh._cache

    @pytest.mark.parametrize("name", ["lstm", "transformer"])
    def test_sequence_model_materializes_both_variants(self, name):
        from repro.serve import default_registry

        registry = default_registry()
        full = registry.materialize(name, "full", width=0.25)
        fact = registry.materialize(name, "factorized", width=0.25, rank_ratio=0.25)
        assert fact.params < full.params
        assert full.input_spec.kind in ("tokens", "seq2seq")
        assert full.describe()["input"]["kind"] == full.input_spec.kind

    def test_lstm_latency_profile_measures(self):
        """A sequence model flows through the same profiling path the
        image zoo uses — the non-image input shapes satellite."""
        from repro.serve import default_registry, measure_latency_profile

        served = default_registry().materialize("lstm", "factorized", width=0.25)
        profile = measure_latency_profile(
            served.model,
            served.input_spec,
            batch_sizes=(1, 4),
            repeats=1,
            meta={"model": "lstm"},
        )
        assert profile.capacity_rps() > 0
        assert all(t > 0 for t in profile.latency_s)

    def test_lstm_serves_under_load(self):
        from repro.serve import default_registry, measure_latency_profile

        served = default_registry().materialize("lstm", "full", width=0.25)
        profile = measure_latency_profile(
            served.model, served.input_spec, batch_sizes=(1, 4), repeats=1
        )
        arrivals = generate_arrivals(ArrivalSpec(rate_rps=50, duration_s=1, seed=0))
        report = ServeSimulator(profile, ServeConfig(slo_s=10.0)).run(arrivals, 1.0)
        assert report.n_requests == len(arrivals)
        assert report.n_completed + report.n_shed == report.n_requests


class TestServedFold:
    """``materialize`` serves the BatchNorm-folded copy of the model it
    built; its costs are the trained architecture's."""

    def test_factorized_resnet18_folds_every_pair(self):
        from repro.core import FoldedModelError
        from repro.serve import default_registry

        served = default_registry().materialize("resnet18", "factorized", width=0.25)
        assert served.bn_folded == 20
        assert served.describe()["bn_folded"] == 20
        with pytest.raises(FoldedModelError):
            served.model.train()

    def test_mlp_has_nothing_to_fold(self):
        from repro.serve import default_registry

        served = default_registry().materialize("mlp", "full", width=0.25)
        assert served.describe()["bn_folded"] == 0

    def test_params_and_macs_count_the_unfolded_model(self):
        from repro.metrics import measure_macs
        from repro.serve import default_registry
        from repro.serve.registry import build_model, input_spec_for
        from repro.utils import set_seed

        served = default_registry().materialize("vgg11", "full", width=0.25)
        set_seed(0)
        model = build_model("vgg11", 4, 0.25)
        example = input_spec_for("vgg11").example_batch(1, np.random.default_rng(0))
        assert served.params == model.num_parameters()
        assert served.macs == measure_macs(model, *example)
