"""``repro serve``: one model variant under seeded offered load (simulated clock)."""

from __future__ import annotations

from .. import observability as obs
from . import groups


def report_payload(report) -> dict:
    """What ``serve --timeline`` and ``gateway serve --report`` write."""
    return {"summary": report.summary(), "timeline": report.timeline(),
            "batches": [b.as_dict() for b in report.batches]}


def print_report(report, source: str) -> None:
    """The outcome block ``serve`` and ``gateway serve`` both end with."""
    s = report.summary()
    shed = f"{s['n_shed_admission']} at admission, {s['n_shed_deadline']} past deadline"
    if shutdown := report.shed_by_reason().get("shutdown", 0):
        shed += f", {shutdown} at shutdown"
    print(f"{source} -> {s['n_requests']} requests")
    print(f"completed {s['n_completed']} | shed {shed} (shed rate {s['shed_rate']:.1%})")
    print(f"throughput {s['throughput_rps']:.1f} rps | goodput {s['goodput_rps']:.1f} rps | "
          f"SLO miss (served) {s['slo_miss_rate']:.1%}")
    print(f"latency p50 {s['p50_ms']:.1f} ms | p95 {s['p95_ms']:.1f} ms | "
          f"p99 {s['p99_ms']:.1f} ms")
    print(f"batches {s['n_batches']} (mean size {s['mean_batch_size']:.1f}) | "
          f"peak queue depth {s['queue_depth_max']}")
    print(f"timeline digest: {s['timeline_digest']}")


def add_serve_parser(sub):
    p = sub.add_parser(
        "serve",
        help="serve a model variant under seeded load with dynamic batching "
             "and SLO admission control",
    )
    groups.add_model_args(p, groups.SERVE_MODELS, variant="full", checkpoint=True)
    groups.add_arrival_args(p, duration=10.0)
    groups.add_policy_args(p)
    p.add_argument("--replicas", type=int, default=1)
    groups.add_latency_profile_arg(p)
    p.add_argument("--save-profile", default=None, metavar="JSON",
                   help="write the measured latency profile for later replay")
    p.add_argument("--profile-repeats", type=int, default=3,
                   help="best-of-N forward timing repeats per batch size")
    p.add_argument("--timeline", default=None, metavar="JSON",
                   help="write the full request/batch timeline")
    return p


def run_serve(args) -> int:
    from ..serve import ServeSimulator, generate_arrivals

    spec = groups.arrival_from_args(args)
    config = groups.serve_config_from_args(args)
    with obs.observe(tracing=False):
        served = groups.served_from_args(args, checkpoint=args.checkpoint)
        print(f"model: {args.model} ({args.variant}, width {args.width}) — "
              f"{served.params:,} params, {served.macs/1e6:.1f} M MACs/example")
        if served.factorization:
            f = served.factorization
            print(f"factorized: {f['params_before']:,} -> {f['params_after']:,} params "
                  f"({f['compression']:.2f}x), {f['n_factorized']} low-rank layers")
        if served.lineage:
            li = served.lineage
            print(f"lineage: {li.get('name')} v{li.get('version')} from run "
                  f"{li.get('parent_run')} (rank map {li.get('rank_map_digest')})")

        profile = groups.load_or_measure_profile(
            args.latency_profile, served, repeats=args.profile_repeats, width=args.width
        )
        if args.latency_profile:
            print(f"latency profile loaded from {args.latency_profile}")
        if args.save_profile:
            profile.save(args.save_profile)
            print(f"latency profile written to {args.save_profile}")
        grid = "  ".join(
            f"{b}:{t * 1e3:.1f}ms" for b, t in zip(profile.batch_sizes, profile.latency_s)
        )
        print(f"per-batch forward latency: {grid}")
        print(f"single-replica capacity: {profile.capacity_rps():.0f} rps "
              f"at batch {profile.best_batch()}")

        arrivals = generate_arrivals(spec)
        report = ServeSimulator(profile, config).run(arrivals, duration_s=args.duration)

    print(f"\nserving: {args.replicas} replica(s) | batch <= {args.max_batch} | "
          f"wait <= {args.max_wait_ms:.0f} ms | SLO {args.slo_ms:.0f} ms")
    print_report(report, f"offered load: {args.rate:.0f} rps {args.arrival} x "
                         f"{args.duration:.0f}s (seed {args.seed})")
    if args.timeline:
        groups.write_json(args.timeline, report_payload(report), "timeline")
    return 0
