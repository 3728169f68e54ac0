"""``repro cluster``: the fleet control plane over ``serve`` — ``place``,
``autoscale``, ``canary``.  All three replay saved latency profiles when
given, so a fixed seed + profile prints the same ``timeline digest``."""

from __future__ import annotations

from .. import observability as obs
from . import groups


def add_host_args(p, *, mem_mb, mem_help: str) -> None:
    p.add_argument("--host-mem-mb", type=float, default=mem_mb, help=mem_help)
    p.add_argument("--host-rps", type=float, default=2000.0,
                   help="host compute budget in requests/second")


def host_from_args(args, cost: float = 1.0):
    """``None`` when ``--host-mem-mb`` is left unset (-> ``HostSpec``)."""
    from ..cluster import HostSpec

    if args.host_mem_mb is None:
        return None
    return HostSpec(mem_bytes=int(args.host_mem_mb * 1e6), compute_rps=args.host_rps, cost=cost)


def _both_variants(args):
    """``(variant, served, profile)`` for the full / factorized pair ``place``
    and ``canary`` compare — materialized for exact memory accounting too."""
    for variant, path in (("full", args.profile_full), ("factorized", args.profile_factorized)):
        served = groups.served_from_args(args, variant)
        yield variant, served, groups.load_or_measure_profile(path, served)


def add_place_parser(sub):
    p = sub.add_parser("place", help="bin-pack replica fleets onto hosts, full vs factorized")
    groups.add_model_args(p, groups.SERVE_MODELS)
    p.add_argument("--replicas", type=int, default=6, help="replica count packed for each variant")
    add_host_args(p, mem_mb=12.0, mem_help="host memory budget in MB")
    p.add_argument("--host-cost", type=float, default=1.0, help="relative cost of one host")
    p.add_argument("--overhead-mb", type=float, default=0.0,
                   help="per-replica runtime memory overhead in MB")
    p.add_argument("--placement", choices=("ffd", "best_fit", "spread"), default="ffd")
    p.add_argument("--max-hosts", type=int, default=None,
                   help="fleet size cap (excess replicas are rejected)")
    groups.add_profile_pair_args(p)
    p.add_argument("--out", default=None, metavar="JSON", help="write the full placement result")
    return p


def run_place(args) -> int:
    from ..cluster import lower_bound_hosts, pack, replica_spec_for

    host = host_from_args(args, cost=args.host_cost)
    groups.require_at_least_one(args, "replicas")
    results = {}
    with obs.observe(tracing=False):
        for variant, served, profile in _both_variants(args):
            replica = replica_spec_for(served, profile, overhead_bytes=int(args.overhead_mb * 1e6))
            fleet = [replica] * args.replicas
            res = results[variant] = pack(fleet, host, policy=args.placement,
                                          max_hosts=args.max_hosts)
            print(f"{variant}: {served.params:,} params "
                  f"({replica.mem_bytes / 1e6:.2f} MB/replica, "
                  f"{replica.capacity_rps:.0f} rps/replica)")
            print(f"  {args.replicas} replicas -> {res.n_hosts} hosts "
                  f"({args.placement}, lower bound {lower_bound_hosts(fleet, host)}) | "
                  f"fleet cost {res.fleet_cost:.1f} | "
                  f"mem packed {res.mem_utilization:.1%} | rejected {len(res.rejected)}")

    full_hosts, fact_hosts = results["full"].n_hosts, results["factorized"].n_hosts
    if full_hosts and fact_hosts:
        print(f"\nfactorized fleet uses {fact_hosts}/{full_hosts} hosts "
              f"({full_hosts - fact_hosts} fewer) for the same replica count")
    if args.out:
        groups.write_json(args.out, {v: res.as_dict() for v, res in results.items()}, "placement")
    return 0


def add_autoscale_parser(sub):
    p = sub.add_parser("autoscale", help="step a seeded load scenario through the control loop")
    groups.add_model_args(p, groups.SERVE_MODELS, variant="factorized")
    groups.add_policy_args(p)
    groups.add_scenario_args(p, phases="250x60,450x60,250x60")
    p.add_argument("--policy", choices=("shed_rate", "target_utilization"), default="shed_rate")
    p.add_argument("--target", type=float, default=None,
                   help="policy target (shed rate or utilization)")
    p.add_argument("--stable-windows", type=int, default=None,
                   help="calm windows required before scale-down")
    p.add_argument("--initial-replicas", type=int, default=1)
    p.add_argument("--min-replicas", type=int, default=1)
    p.add_argument("--max-replicas", type=int, default=8)
    p.add_argument("--cooldown", type=int, default=1, help="windows to hold after a scale event")
    add_host_args(p, mem_mb=None, mem_help="also pack the final fleet onto hosts of this size")
    groups.add_latency_profile_arg(p)
    p.add_argument("--timeline", default=None, metavar="JSON",
                   help="write the windowed timeline + scale events")
    return p


def run_autoscale(args) -> int:
    from ..cluster import ClusterAutoscaler, PoolConfig, make_policy, replica_spec_for

    scenario = groups.scenario_from_args(args)
    overrides = {"target": args.target, "stable_windows": args.stable_windows}
    policy = make_policy(args.policy, **{k: v for k, v in overrides.items() if v is not None})
    host = host_from_args(args)
    batch = groups.policy_from_args(args)

    with obs.observe(tracing=False):
        served = groups.served_from_args(args)
        profile = groups.load_or_measure_profile(args.latency_profile, served)
        pool = PoolConfig(
            name=f"{args.model}:{args.variant}",
            replica=replica_spec_for(served, profile),
            profile=profile,
            slo_s=args.slo_ms / 1e3,
            policy=policy,
            batch=batch,
            initial_replicas=args.initial_replicas,
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            cooldown_windows=args.cooldown,
        )
        report = ClusterAutoscaler(scenario, [pool], host_spec=host).run()

    s = report.summary()
    p = s["pools"][pool.name]
    print(f"scenario: {args.phases} @ window {args.window:.0f}s "
          f"({s['n_windows']} windows, seed {args.seed})")
    print(f"pool {pool.name}: policy {args.policy} | "
          f"replicas {args.initial_replicas} -> {s['final_replicas'][pool.name]} "
          f"(peak {p['max_replicas']}) | {s['n_scale_events']} scale events, "
          f"{p['oscillations']} oscillations")
    print(f"steady-state shed {p['steady_state_shed']:.2%}")
    for e in report.events:
        print(f"  window {e.window:>3}: {e.before} -> {e.after} ({e.direction}, {e.reason})")
    if report.placement is not None:
        print(f"final fleet: {report.placement.n_hosts} hosts "
              f"(cost {report.placement.fleet_cost:.1f}, "
              f"policy {report.placement.policy})")
    print(f"timeline digest: {s['timeline_digest']}")
    if args.timeline:
        payload = {"summary": s, "windows": report.timeline(),
                   "events": [e.as_dict() for e in report.events]}
        groups.write_json(args.timeline, payload, "timeline")
    return 0


def add_canary_parser(sub):
    p = sub.add_parser(
        "canary", help="staged traffic shift full -> factorized, gated on shed delta"
    )
    groups.add_model_args(p, groups.SERVE_MODELS)
    groups.add_scenario_args(p, phases="400x120")
    groups.add_canary_args(p)
    return p


def run_canary(args) -> int:
    from ..cluster import run_canary as walk_canary

    scenario = groups.scenario_from_args(args)
    config = groups.canary_from_args(args)
    with obs.observe(tracing=False):
        (_, _, full), (_, _, fact) = _both_variants(args)
        report = walk_canary(scenario, full, fact, config)

    print(f"canary rollout {args.model} full -> factorized "
          f"({args.phases}, seed {args.seed})")
    groups.print_canary([s.as_dict() for s in report.steps], report.status, report.final_fraction)
    print(f"timeline digest: {report.digest()}")
    return 0 if report.status == "promoted" or args.allow_rollback else 1
