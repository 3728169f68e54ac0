"""Cluster benchmark — fleet cost, autoscaling, and canary rollout.

The control-plane restatement of Pufferfish's serving claim: factorized
replicas are permanently smaller, so the *fleet* serving them needs
strictly fewer hosts at an equal-or-lower shed rate.  Four scenario
families feed ``BENCH_cluster.json``, all driven by the same pinned
measurement-derived latency profiles the serving benchmark gates, so
every number is a pure function of ``(seed, profiles, config)`` and the
gate compares them exactly:

* ``fleet_cost``       — equal replica counts per variant, same seeded
  arrival stream: factorized packs onto fewer hosts and sheds no more;
* ``placement_policies`` — host counts for a mixed fleet under each
  placement policy (ffd / best_fit / spread), with the volume lower
  bound recorded;
* ``autoscale_spike``  — the windowed control loop through a 250→450→250
  rps spike: scale events, steady-state shed, zero oscillations, digest;
* ``canary_rollout``   — a promoted full→factorized rollout and a
  forced rollback (pathologically slow canary), both digested.

Gate: ``benchmarks/gate.py cluster`` against
``benchmarks/baselines/cluster_baseline.json``.
"""

from harness import artifact, print_table
from repro.cluster import (
    CanaryConfig,
    ClusterAutoscaler,
    ClusterScenario,
    HostSpec,
    PoolConfig,
    ShedRatePolicy,
    lower_bound_hosts,
    pack,
    parse_phases,
    replica_spec_for,
    run_canary,
)
from repro.lifecycle import PINNED_FACTORIZED_PROFILE, PINNED_FULL_PROFILE
from repro.serve import (
    ArrivalSpec,
    BatchPolicy,
    LatencyProfile,
    ServeConfig,
    ServeSimulator,
    default_registry,
    generate_arrivals,
)

_SCENARIOS = artifact("cluster")["scenarios"]

# The serving benchmark's pinned measurement-derived profiles (VGG-19,
# width 0.25, rank ratio 0.25), so the fleet numbers share provenance with
# the single-replica crossover table.
PINNED = {"full": PINNED_FULL_PROFILE, "factorized": PINNED_FACTORIZED_PROFILE}

SLO_S = 0.150
POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.010)
HOST = HostSpec(mem_bytes=12_000_000, compute_rps=2000.0)
REPLICAS_PER_VARIANT = 6
FLEET_RATE = 2550.0
FLEET_DURATION_S = 10.0


def _replicas():
    """Replica specs from the registry's exact parameter accounting."""
    registry = default_registry()
    out = {}
    for variant, profile in PINNED.items():
        served = registry.materialize("vgg19", variant, width=0.25, rank_ratio=0.25)
        out[variant] = (served, replica_spec_for(served, profile), profile)
    return out


def test_fleet_cost():
    """Equal replica counts, same request stream: the factorized fleet
    must serve at an equal-or-lower shed rate on strictly fewer hosts."""
    cells = {}
    arrivals = generate_arrivals(
        ArrivalSpec(rate_rps=FLEET_RATE, duration_s=FLEET_DURATION_S, seed=0)
    )
    for variant, (served, replica, profile) in _replicas().items():
        placement = pack([replica] * REPLICAS_PER_VARIANT, HOST)
        report = ServeSimulator(
            profile,
            ServeConfig(slo_s=SLO_S, policy=POLICY, replicas=REPLICAS_PER_VARIANT),
        ).run(arrivals, duration_s=FLEET_DURATION_S)
        s = report.summary()
        cells[variant] = {
            "params": served.params,
            "replica_mem_mb": round(replica.mem_bytes / 1e6, 6),
            "capacity_rps": round(replica.capacity_rps, 6),
            "n_hosts": placement.n_hosts,
            "fleet_cost": round(placement.fleet_cost, 6),
            "mem_utilization": round(placement.mem_utilization, 6),
            "n_rejected": len(placement.rejected),
            "n_requests": s["n_requests"],
            "n_completed": s["n_completed"],
            "shed_rate": s["shed_rate"],
            "throughput_rps": s["throughput_rps"],
            "p99_ms": s["p99_ms"],
            "timeline_digest": s["timeline_digest"],
        }
    print_table(
        f"Fleet cost at {FLEET_RATE:.0f} rps ({REPLICAS_PER_VARIANT} replicas, "
        f"{HOST.mem_bytes / 1e6:.0f} MB hosts)",
        ["Variant", "MB/replica", "Hosts", "Shed", "Throughput"],
        [
            [
                v,
                c["replica_mem_mb"],
                c["n_hosts"],
                f"{c['shed_rate']:.2%}",
                f"{c['throughput_rps']:.0f}",
            ]
            for v, c in cells.items()
        ],
    )
    _SCENARIOS["fleet_cost"] = {
        "model": "vgg19",
        "width": 0.25,
        "rank_ratio": 0.25,
        "host_mem_mb": HOST.mem_bytes / 1e6,
        "host_rps": HOST.compute_rps,
        "replicas_per_variant": REPLICAS_PER_VARIANT,
        "rate_rps": FLEET_RATE,
        "duration_s": FLEET_DURATION_S,
        "seed": 0,
        "variants": cells,
    }
    full, fact = cells["full"], cells["factorized"]
    # The acceptance criterion: equal-or-lower shed on strictly fewer hosts.
    assert fact["n_hosts"] < full["n_hosts"]
    assert fact["shed_rate"] <= full["shed_rate"]
    assert fact["n_requests"] == full["n_requests"]
    assert not full["n_rejected"] and not fact["n_rejected"]


def test_placement_policies():
    """A mixed fleet (both variants) under every placement policy."""
    reps = _replicas()
    fleet = [reps["full"][1]] * 4 + [reps["factorized"][1]] * 6
    cells = {}
    for policy in ("ffd", "best_fit", "spread"):
        res = pack(fleet, HOST, policy=policy)
        cells[policy] = {
            "n_hosts": res.n_hosts,
            "fleet_cost": round(res.fleet_cost, 6),
            "mem_utilization": round(res.mem_utilization, 6),
            "replica_counts": res.replica_counts(),
            "n_rejected": len(res.rejected),
        }
    lb = lower_bound_hosts(fleet, HOST)
    print_table(
        "Placement policies, mixed fleet (4 full + 6 factorized)",
        ["Policy", "Hosts", "Mem packed", "Rejected"],
        [
            [p, c["n_hosts"], f"{c['mem_utilization']:.1%}", c["n_rejected"]]
            for p, c in cells.items()
        ],
    )
    _SCENARIOS["placement_policies"] = {
        "fleet": {"full": 4, "factorized": 6},
        "lower_bound_hosts": lb,
        "policies": cells,
    }
    for c in cells.values():
        assert c["n_rejected"] == 0
        assert c["n_hosts"] >= lb


AUTOSCALE_PHASES = "250x60,450x60,250x60"


def test_autoscale_spike():
    """The control loop through a traffic spike: scales up past
    single-replica capacity, returns to a calm steady state with shed
    within target and zero hysteresis oscillations."""
    _, replica, profile = _replicas()["factorized"]
    scenario = ClusterScenario(
        parse_phases(AUTOSCALE_PHASES), window_s=10.0, seed=7
    )
    pool = PoolConfig(
        name="vgg19:factorized",
        replica=replica,
        profile=profile,
        slo_s=SLO_S,
        policy=ShedRatePolicy(target=0.02),
        batch=POLICY,
        initial_replicas=1,
        max_replicas=8,
        cooldown_windows=1,
    )
    report = ClusterAutoscaler(scenario, [pool], host_spec=HOST).run()
    again = ClusterAutoscaler(scenario, [pool], host_spec=HOST).run()
    assert report.digest() == again.digest(), "control loop must be deterministic"

    s = report.summary()
    p = s["pools"][pool.name]
    print_table(
        f"Autoscale spike ({AUTOSCALE_PHASES}, window 10 s, shed target 2%)",
        ["Windows", "Scale events", "Peak replicas", "Steady shed", "Oscillations"],
        [[s["n_windows"], s["n_scale_events"], p["max_replicas"],
          f"{p['steady_state_shed']:.2%}", p["oscillations"]]],
    )
    _SCENARIOS["autoscale_spike"] = {
        "phases": AUTOSCALE_PHASES,
        "window_s": 10.0,
        "seed": 7,
        "policy": "shed_rate",
        "shed_target": 0.02,
        "initial_replicas": 1,
        "final_replicas": s["final_replicas"][pool.name],
        "max_replicas": p["max_replicas"],
        "n_windows": s["n_windows"],
        "n_scale_events": s["n_scale_events"],
        "oscillations": p["oscillations"],
        "steady_state_shed": p["steady_state_shed"],
        "events": [e.as_dict() for e in report.events],
        "final_hosts": report.placement.n_hosts,
        "timeline_digest": s["timeline_digest"],
    }
    assert s["n_scale_events"] >= 1
    assert p["steady_state_shed"] <= 0.02
    assert p["oscillations"] == 0


def test_canary_rollout():
    """A healthy rollout promotes; a pathologically slow canary rolls
    back at the first gate — both outcomes digested and gated exactly."""
    scenario = ClusterScenario(parse_phases("400x120"), window_s=10.0, seed=3)
    config = CanaryConfig(slo_s=SLO_S, batch=POLICY)

    fact = PINNED_FACTORIZED_PROFILE
    promoted = run_canary(scenario, PINNED_FULL_PROFILE, fact, config)
    slow = LatencyProfile(fact.batch_sizes, tuple(40 * t for t in fact.latency_s))
    rolled_back = run_canary(scenario, PINNED_FULL_PROFILE, slow, config)

    print_table(
        "Canary rollout full -> factorized (400 rps, 3 windows/step)",
        ["Run", "Status", "Steps taken", "Final fraction"],
        [
            ["healthy", promoted.status, len(promoted.steps),
             f"{promoted.final_fraction:.0%}"],
            ["slow canary", rolled_back.status, len(rolled_back.steps),
             f"{rolled_back.final_fraction:.0%}"],
        ],
    )
    _SCENARIOS["canary_rollout"] = {
        "phases": "400x120",
        "window_s": 10.0,
        "seed": 3,
        "steps": list(config.steps),
        "windows_per_step": config.windows_per_step,
        "shed_delta_tolerance": config.shed_delta_tolerance,
        "healthy": promoted.summary(),
        "slow_canary": rolled_back.summary(),
    }
    assert promoted.status == "promoted"
    assert rolled_back.status == "rolled_back"
    assert len(rolled_back.steps) < len(config.steps)
