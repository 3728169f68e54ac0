"""The cluster control plane: host model, bin-packing placement
(hypothesis properties), seeded scenarios, scaling policies, the
autoscaler loop, and canary rollouts.

The determinism tests pin the PR's acceptance criterion — same seed and
config produce the same windowed timeline and digest across invocations —
and the oscillation tests pin the hysteresis claim on the event timeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.cluster import (
    CanaryConfig,
    ClusterAutoscaler,
    ClusterConfigError,
    ClusterScenario,
    Host,
    HostSpec,
    LoadPhase,
    PoolConfig,
    ReplicaSpec,
    ShedRatePolicy,
    TargetUtilizationPolicy,
    WindowStats,
    lower_bound_hosts,
    make_policy,
    next_fit,
    pack,
    parse_phases,
    replica_spec_for,
    route_arrivals,
    run_canary,
)
from repro.lifecycle import PINNED_FACTORIZED_PROFILE as FACT
from repro.lifecycle import PINNED_FULL_PROFILE as FULL
from repro.serve import LatencyProfile


@pytest.fixture(autouse=True)
def _registry_clean():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


# FULL / FACT: the pinned measurement-derived profiles the serving and cluster
# benchmarks use, so every simulator-backed test here is machine-independent.
HOST = HostSpec(mem_bytes=12_000_000, compute_rps=2000.0)
FULL_REPLICA = ReplicaSpec("vgg19", "full", 5_151_184, FULL.capacity_rps())
FACT_REPLICA = ReplicaSpec("vgg19", "factorized", 2_103_760, FACT.capacity_rps())


def make_pool(
    profile=FACT,
    replica=FACT_REPLICA,
    policy=None,
    name="pool",
    **kwargs,
):
    return PoolConfig(
        name=name,
        replica=replica,
        profile=profile,
        slo_s=0.15,
        policy=policy or ShedRatePolicy(target=0.02),
        **kwargs,
    )


# ---------------------------------------------------------------------------


class TestHostModel:
    def test_spec_validation(self):
        with pytest.raises(ClusterConfigError):
            HostSpec(mem_bytes=0, compute_rps=100.0)
        with pytest.raises(ClusterConfigError):
            HostSpec(mem_bytes=100, compute_rps=0.0)
        with pytest.raises(ClusterConfigError):
            ReplicaSpec("m", "full", mem_bytes=0, capacity_rps=1.0)

    def test_place_updates_budgets(self):
        host = Host(index=0, spec=HOST)
        host.place(FACT_REPLICA)
        assert host.mem_used == FACT_REPLICA.mem_bytes
        assert host.mem_free == HOST.mem_bytes - FACT_REPLICA.mem_bytes
        assert host.count_of("vgg19:factorized") == 1

    def test_place_refuses_overflow(self):
        tiny = HostSpec(mem_bytes=FACT_REPLICA.mem_bytes, compute_rps=2000.0)
        host = Host(index=0, spec=tiny)
        host.place(FACT_REPLICA)
        with pytest.raises(ValueError):
            host.place(FACT_REPLICA)

    def test_replica_spec_for_uses_exact_accounting(self):
        from repro.serve import default_registry

        served = default_registry().materialize("mlp", "full", width=0.25)
        spec = replica_spec_for(served, FACT)
        assert spec.mem_bytes == served.params * 4
        assert spec.capacity_rps == pytest.approx(FACT.capacity_rps())
        assert spec.key == "mlp:full"


# -- bin-packing properties -------------------------------------------------

replica_lists = st.lists(
    st.builds(
        ReplicaSpec,
        model=st.sampled_from(["a", "b", "c"]),
        variant=st.sampled_from(["full", "factorized"]),
        mem_bytes=st.integers(min_value=1, max_value=120),
        capacity_rps=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)
host_specs = st.builds(
    HostSpec,
    mem_bytes=st.integers(min_value=1, max_value=100),
    compute_rps=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
)


class TestPlacementProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        replicas=replica_lists,
        host=host_specs,
        policy=st.sampled_from(["ffd", "best_fit", "spread"]),
    )
    def test_no_host_over_budget(self, replicas, host, policy):
        result = pack(replicas, host, policy=policy)
        for h in result.hosts:
            assert sum(r.mem_bytes for r in h.replicas) <= host.mem_bytes
            assert sum(r.capacity_rps for r in h.replicas) <= host.compute_rps + 1e-9
            assert h.mem_used == sum(r.mem_bytes for r in h.replicas)

    @settings(max_examples=150, deadline=None)
    @given(
        replicas=replica_lists,
        host=host_specs,
        policy=st.sampled_from(["ffd", "best_fit", "spread"]),
    )
    def test_every_replica_placed_or_rejected(self, replicas, host, policy):
        result = pack(replicas, host, policy=policy)
        assert result.n_placed + len(result.rejected) == len(replicas)
        # A rejected replica with no max_hosts cap must genuinely not fit
        # even an empty host — rejection is never silent capacity loss.
        for r in result.rejected:
            assert r.mem_bytes > host.mem_bytes or r.capacity_rps > host.compute_rps

    @settings(max_examples=100, deadline=None)
    @given(replicas=replica_lists, host=host_specs, seed=st.integers(0, 2**16))
    def test_input_order_is_irrelevant(self, replicas, host, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(replicas)
        rng.shuffle(shuffled)
        a = pack(replicas, host).as_dict()
        b = pack(shuffled, host).as_dict()
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(replicas=replica_lists, host=host_specs)
    def test_ffd_never_beats_next_fit_baseline(self, replicas, host):
        """On the same decreasing order, keeping every host open (first
        fit) can only do as well or better than the one-open-host naive
        packer — the classic FF <= NF dominance."""
        ffd = pack(replicas, host, policy="ffd")
        naive = next_fit(replicas, host)
        assert ffd.n_hosts <= naive.n_hosts
        assert ffd.n_placed == naive.n_placed

    @settings(max_examples=100, deadline=None)
    @given(
        replicas=replica_lists,
        host=host_specs,
        policy=st.sampled_from(["ffd", "best_fit", "spread"]),
    )
    def test_volume_lower_bound_holds(self, replicas, host, policy):
        result = pack(replicas, host, policy=policy)
        if not result.rejected and replicas:
            assert result.n_hosts >= lower_bound_hosts(replicas, host)


class TestPlacement:
    def test_factorized_fleet_needs_fewer_hosts(self):
        """The Pufferfish serving claim at fleet scale: same replica
        count, strictly fewer hosts for the factorized fleet."""
        full = pack([FULL_REPLICA] * 6, HOST)
        fact = pack([FACT_REPLICA] * 6, HOST)
        assert fact.n_hosts < full.n_hosts
        assert fact.fleet_cost < full.fleet_cost
        assert not full.rejected and not fact.rejected

    def test_max_hosts_rejects_explicitly(self):
        result = pack([FULL_REPLICA] * 6, HOST, max_hosts=1)
        assert result.n_hosts == 1
        assert result.n_placed + len(result.rejected) == 6
        assert len(result.rejected) == 4  # 2 fit per 12 MB host

    def test_oversized_replica_rejected_even_unbounded(self):
        big = ReplicaSpec("m", "full", HOST.mem_bytes + 1, 10.0)
        result = pack([big, FACT_REPLICA], HOST)
        assert [r.key for r in result.rejected] == ["m:full"]
        assert result.n_placed == 1

    def test_spread_distributes_same_key(self):
        # Two big replicas force two hosts open; the two same-key small
        # replicas then land on the same host under ffd but on different
        # hosts under spread (fault-domain diversity).
        host = HostSpec(mem_bytes=30, compute_rps=1000.0)
        reps = [ReplicaSpec("big", "full", 20, 1.0)] * 2 + [
            ReplicaSpec("small", "full", 5, 1.0)
        ] * 2
        ffd = pack(reps, host, policy="ffd")
        spread = pack(reps, host, policy="spread")
        assert max(h.count_of("small:full") for h in ffd.hosts) == 2
        assert [h.count_of("small:full") for h in spread.hosts] == [1, 1]

    def test_unknown_policy_raises(self):
        with pytest.raises(ClusterConfigError):
            pack([FACT_REPLICA], HOST, policy="random")

    def test_placement_metrics_flow(self):
        with obs.observe(tracing=False):
            pack([FACT_REPLICA] * 4, HOST)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["cluster.replicas_placed"] == 4
        assert snap["gauges"]["cluster.hosts{policy=ffd}"] == 1


# -- scenarios --------------------------------------------------------------


class TestScenario:
    def test_parse_phases(self):
        phases = parse_phases("250x60,450x30")
        assert phases == (LoadPhase(60.0, 250.0), LoadPhase(30.0, 450.0))

    @pytest.mark.parametrize(
        "bad", ["", "250", "x60", "250x", "a x b", "250x60,,100x5", "0x60", "250x0"]
    )
    def test_parse_phases_rejects(self, bad):
        with pytest.raises(ClusterConfigError):
            parse_phases(bad)

    def test_rate_at_follows_schedule(self):
        sc = ClusterScenario(parse_phases("100x10,300x10"), window_s=5.0)
        assert sc.rate_at(0.0) == 100.0
        assert sc.rate_at(9.99) == 100.0
        assert sc.rate_at(10.0) == 300.0
        assert sc.duration_s == 20.0
        assert sc.n_windows == 4

    def test_window_arrivals_deterministic_and_bounded(self):
        sc = ClusterScenario(parse_phases("200x20"), window_s=10.0, seed=5)
        a = sc.window_arrivals(1)
        b = sc.window_arrivals(1)
        assert np.array_equal(a, b)
        assert a.min() >= 10.0 and a.max() < 20.0

    def test_windows_query_order_independent(self):
        """Counter-keyed draws: reading window 3 first does not perturb
        window 0 — the cluster analogue of the loadgen guarantee."""
        sc = ClusterScenario(parse_phases("200x40"), window_s=10.0, seed=5)
        late_first = [sc.window_arrivals(3), sc.window_arrivals(0)]
        fresh = ClusterScenario(parse_phases("200x40"), window_s=10.0, seed=5)
        assert np.array_equal(late_first[1], fresh.window_arrivals(0))

    def test_window_out_of_range(self):
        sc = ClusterScenario(parse_phases("200x20"), window_s=10.0)
        with pytest.raises(ClusterConfigError):
            sc.window_arrivals(2)

    def test_route_partitions_arrivals(self):
        arrivals = np.sort(np.random.default_rng(0).uniform(0, 10, 500))
        routed = route_arrivals(arrivals, {"a": 0.3, "b": 0.7}, seed=1, window=0)
        merged = np.sort(np.concatenate([routed["a"], routed["b"]]))
        assert np.array_equal(merged, arrivals)
        # Deterministic split, roughly proportional.
        again = route_arrivals(arrivals, {"a": 0.3, "b": 0.7}, seed=1, window=0)
        assert np.array_equal(routed["a"], again["a"])
        assert 0.15 < len(routed["a"]) / len(arrivals) < 0.45

    def test_route_validates_fractions(self):
        arrivals = np.array([0.1, 0.2])
        with pytest.raises(ClusterConfigError):
            route_arrivals(arrivals, {"a": 0.5, "b": 0.4}, seed=0, window=0)
        with pytest.raises(ClusterConfigError):
            route_arrivals(arrivals, {}, seed=0, window=0)

    def test_scenario_validation(self):
        with pytest.raises(ClusterConfigError):
            ClusterScenario(())
        with pytest.raises(ClusterConfigError):
            ClusterScenario(parse_phases("100x10"), window_s=0.0)
        with pytest.raises(ClusterConfigError):
            ClusterScenario(parse_phases("100x10"), process="uniform")


# -- policies ---------------------------------------------------------------


def stats(window, shed, util, replicas, offered=1000):
    return WindowStats(window, offered, shed, util, replicas)


class TestPolicies:
    def test_validation(self):
        with pytest.raises(ClusterConfigError):
            TargetUtilizationPolicy(target=0.0)
        with pytest.raises(ClusterConfigError):
            TargetUtilizationPolicy(low=0.7, target=0.6, high=0.8)
        with pytest.raises(ClusterConfigError):
            ShedRatePolicy(target=1.5)
        with pytest.raises(ClusterConfigError):
            make_policy("nope")

    def test_target_utilization_scales_up_proportionally(self):
        p = TargetUtilizationPolicy(target=0.6, high=0.8, low=0.3)
        # 1 replica at 95% busy needs ceil(0.95/0.6) = 2 total.
        assert p.decide([stats(0, 0.0, 0.95, 1)]) == 1
        # 4 replicas at 90% need ceil(3.6/0.6)=6 total.
        assert p.decide([stats(0, 0.0, 0.90, 4)]) == 2

    def test_target_utilization_scales_down_after_stable_windows(self):
        p = TargetUtilizationPolicy(target=0.6, high=0.8, low=0.3, stable_windows=2)
        hist = [stats(0, 0.0, 0.2, 2)]
        assert p.decide(hist) == 0  # only one calm window so far
        hist.append(stats(1, 0.0, 0.25, 2))
        assert p.decide(hist) == -1

    def test_target_utilization_dead_band_holds(self):
        p = TargetUtilizationPolicy(target=0.6, high=0.8, low=0.3)
        hist = [stats(w, 0.0, 0.5, 2) for w in range(5)]
        assert p.decide(hist) == 0

    def test_shed_rate_scales_up_on_shed(self):
        p = ShedRatePolicy(target=0.02, step_shed=0.10)
        assert p.decide([stats(0, 0.05, 0.9, 1)]) == 1
        assert p.decide([stats(0, 0.35, 0.99, 2)]) == 3

    def test_shed_rate_scale_down_requires_calm_and_headroom(self):
        p = ShedRatePolicy(target=0.02, stable_windows=2, max_util_after_shrink=0.7)
        calm = [stats(w, 0.0, 0.3, 2) for w in range(2)]
        assert p.decide(calm) == -1
        # Same calm shed but high utilization: shrinking would overload.
        busy = [stats(w, 0.0, 0.6, 2) for w in range(2)]
        assert p.decide(busy) == 0
        # Never shrinks below one replica.
        floor = [stats(w, 0.0, 0.1, 1) for w in range(2)]
        assert p.decide(floor) == 0


# -- autoscaler -------------------------------------------------------------

SPIKE = "250x60,450x60,250x60"


def run_spike(seed=7, **pool_kwargs):
    sc = ClusterScenario(parse_phases(SPIKE), window_s=10.0, seed=seed)
    defaults = dict(initial_replicas=1, max_replicas=8, cooldown_windows=1)
    pool = make_pool(**{**defaults, **pool_kwargs})
    return ClusterAutoscaler(sc, [pool], host_spec=HOST).run()


class TestAutoscaler:
    def test_same_seed_same_digest(self):
        a, b = run_spike(), run_spike()
        assert a.digest() == b.digest()
        assert a.summary() == b.summary()

    def test_different_seed_different_digest(self):
        assert run_spike(seed=7).digest() != run_spike(seed=8).digest()

    def test_scales_up_during_spike(self):
        report = run_spike()
        ups = [e for e in report.events if e.direction == "up"]
        assert ups, "spike above single-replica capacity must trigger scale-up"
        # The spike starts at window 6 (t = 60 s).
        assert all(e.window >= 6 for e in ups)
        assert report.max_replicas_seen("pool") >= 2

    def test_steady_state_shed_within_target(self):
        report = run_spike()
        assert report.steady_state_shed("pool", last_n=3) <= 0.02

    def test_hysteresis_prevents_oscillation(self):
        report = run_spike()
        assert report.oscillations("pool") == 0
        # Stronger: no up event is immediately followed by a down event
        # in the next window anywhere in the timeline.
        evs = report.events
        for a, b in zip(evs, evs[1:]):
            if a.direction != b.direction:
                assert b.window - a.window > 1

    def test_replicas_respect_bounds(self):
        report = run_spike(max_replicas=2)
        assert all(r.replicas <= 2 for r in report.records)
        assert all(r.replicas >= 1 for r in report.records)
        assert all(1 <= e.after <= 2 for e in report.events)

    def test_cooldown_spaces_events(self):
        report = run_spike(cooldown_windows=3)
        evs = report.events
        for a, b in zip(evs, evs[1:]):
            assert b.window - a.window > 3

    def test_final_placement_attached(self):
        report = run_spike()
        assert report.placement is not None
        assert report.placement.n_placed == report.final_replicas["pool"]
        assert report.placement.n_hosts >= 1

    def test_pool_validation(self):
        sc = ClusterScenario(parse_phases("100x10"), window_s=10.0)
        with pytest.raises(ClusterConfigError):
            ClusterAutoscaler(sc, [])
        with pytest.raises(ClusterConfigError):
            ClusterAutoscaler(sc, [make_pool(name="x"), make_pool(name="x")])
        with pytest.raises(ClusterConfigError):
            make_pool(initial_replicas=0)
        with pytest.raises(ClusterConfigError):
            make_pool(min_replicas=4, max_replicas=2)

    def test_two_pools_split_traffic(self):
        sc = ClusterScenario(parse_phases("300x30"), window_s=10.0, seed=2)
        pools = [
            make_pool(name="full", profile=FULL, replica=FULL_REPLICA,
                      traffic_fraction=0.5),
            make_pool(name="fact", traffic_fraction=0.5),
        ]
        report = ClusterAutoscaler(sc, pools).run()
        per_window = {}
        for r in report.records:
            per_window.setdefault(r.window, 0)
            per_window[r.window] += r.offered
        # Together the pools see the whole stream.
        total = sum(len(sc.window_arrivals(w)) for w in range(sc.n_windows))
        assert sum(per_window.values()) == total

    def test_fractions_must_sum_to_one(self):
        sc = ClusterScenario(parse_phases("300x30"), window_s=10.0)
        pools = [
            make_pool(name="a", traffic_fraction=0.5),
            make_pool(name="b", traffic_fraction=0.4),
        ]
        with pytest.raises(ClusterConfigError):
            ClusterAutoscaler(sc, pools)

    def test_cluster_metrics_flow(self):
        with obs.observe(tracing=False):
            report = run_spike()
        snap = obs.get_registry().snapshot()
        assert snap["gauges"]["cluster.pool.replicas{pool=pool}"] == \
            report.records[-1].replicas
        assert "cluster.scale_events{direction=up}" in snap["counters"]


# -- canary -----------------------------------------------------------------


class TestCanary:
    def scenario(self, seed=3):
        return ClusterScenario(parse_phases("400x120"), window_s=10.0, seed=seed)

    def test_equal_profiles_promote(self):
        report = run_canary(self.scenario(), FULL, FACT)
        assert report.status == "promoted"
        assert report.final_fraction == 1.0
        assert [s.advanced for s in report.steps] == [True] * 4

    def test_deterministic(self):
        a = run_canary(self.scenario(), FULL, FACT)
        b = run_canary(self.scenario(), FULL, FACT)
        assert a.digest() == b.digest()

    def test_bad_canary_rolls_back(self):
        # A canary 40x slower than baseline sheds nearly everything.
        slow = LatencyProfile(FACT.batch_sizes, tuple(40 * t for t in FACT.latency_s))
        report = run_canary(self.scenario(), FULL, slow)
        assert report.status == "rolled_back"
        assert report.final_fraction == 0.0
        assert not report.steps[-1].advanced
        # Rollback stops the schedule early.
        assert len(report.steps) < 4

    def test_needs_enough_windows(self):
        short = ClusterScenario(parse_phases("400x20"), window_s=10.0)
        with pytest.raises(ClusterConfigError):
            run_canary(short, FULL, FACT)

    def test_config_validation(self):
        with pytest.raises(ClusterConfigError):
            CanaryConfig(steps=(0.5, 0.25, 1.0))
        with pytest.raises(ClusterConfigError):
            CanaryConfig(steps=(0.5,))
        with pytest.raises(ClusterConfigError):
            CanaryConfig(windows_per_step=0)
