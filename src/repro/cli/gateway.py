"""``repro gateway``: the live asyncio HTTP twin of ``serve`` (``gateway
serve``) and its seeded load client (``gateway loadtest``)."""

from __future__ import annotations

import sys

from .. import observability as obs
from . import groups
from .serve import print_report, report_payload


def add_gateway_boot_args(p) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="gateway listen port (0 picks a free one)")
    p.add_argument("--replicas", type=int, default=1, help="concurrent batch workers")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds (default: run until "
                        "SIGINT/SIGTERM)")
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="write the bound port here once listening (for "
                        "scripted readiness checks)")


def serve_gateway(executor, config, host, port, duration=None, ready_file=None):
    """Boot the HTTP gateway on ``executor``, serve until ``duration`` elapses
    or SIGINT/SIGTERM arrives, drain, print the final report (-> ``ServeReport``)."""
    import asyncio
    import signal

    from ..gateway import GatewayServer

    async def _main(server):
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix loop, or running off the main thread
        await server.start()
        print(f"gateway listening on http://{server.host}:{server.port} "
              f"({executor.kind} executor, "
              f"{config.replicas} replica(s), batch <= {config.policy.max_batch_size}, "
              f"SLO {config.slo_s * 1e3:.0f} ms)", flush=True)
        if ready_file:
            with open(ready_file, "w") as f:
                f.write(str(server.port))
        if duration is not None:
            loop.call_later(duration, stop.set)
        try:
            await stop.wait()
        finally:
            await server.stop()
        return server.report()

    with obs.observe(tracing=False):
        report = asyncio.run(_main(GatewayServer(executor, config, host=host, port=port)))

    print_report(report, "\nlive traffic")
    return report


def add_serve_parser(sub):
    p = sub.add_parser(
        "serve",
        help="run the HTTP gateway: same batcher + admission control as the "
             "simulator, against real inference",
    )
    groups.add_model_args(p, groups.SERVE_MODELS, variant="full", checkpoint=True)
    add_gateway_boot_args(p)
    groups.add_policy_args(p)
    p.add_argument("--executor", choices=("model", "profile"), default="model",
                   help="model: real no_grad forwards off-loop; profile: "
                        "sleep a pinned latency profile (needs "
                        "--latency-profile; machine-independent)")
    groups.add_latency_profile_arg(p, help="saved latency profile for admission estimates "
                                    "(measured from the model when omitted)")
    p.add_argument("--report", default=None, metavar="JSON", help="write the final serve report")
    return p


def executor_from_args(args):
    """The inference executor, holding the profile admission reasons about
    (-> ``ProfileExecutor`` / ``ModelExecutor``)."""
    from ..gateway import ModelExecutor, ProfileExecutor

    if args.executor == "profile":
        if not args.latency_profile:
            raise groups.ConfigError("--executor profile requires --latency-profile")
        return ProfileExecutor(groups.load_or_measure_profile(args.latency_profile))
    served = groups.served_from_args(args, checkpoint=args.checkpoint)
    return ModelExecutor(served, groups.load_or_measure_profile(args.latency_profile, served))


def run_serve(args) -> int:
    config = groups.serve_config_from_args(args)
    report = serve_gateway(executor_from_args(args), config, args.host, args.port,
                           args.duration, args.ready_file)
    if args.report:
        groups.write_json(args.report, report_payload(report), "report")
    return 0


def add_loadtest_parser(sub):
    p = sub.add_parser("loadtest", help="replay a seeded arrival trace against a running gateway")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    groups.add_arrival_args(p, duration=5.0)
    p.add_argument("--seed", type=int, default=0, help="fully determines the offered trace")
    p.add_argument("--window-s", type=float, default=1.0,
                   help="bursty: burst-decision window length")
    p.add_argument("--rid-offset", type=int, default=0,
                   help="first request id (ids are unique per server lifetime; offset "
                        "a second run against the same server)")
    p.add_argument("--steps", type=int, default=1, help=">1 requests streamed multi-step responses")
    p.add_argument("--mode", choices=("open", "closed"), default="open",
                   help="open: fire at trace timestamps; closed: fixed worker pool")
    p.add_argument("--workers", type=int, default=4, help="closed-loop concurrency")
    p.add_argument("--timeout-s", type=float, default=30.0, help="per-request client timeout")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write per-request records + summary")
    return p


def run_loadtest(args) -> int:
    import asyncio

    from ..gateway import LoadClient, build_trace, summarize_records, trace_digest

    spec = groups.arrival_from_args(args, window_s=args.window_s)
    groups.require_at_least_one(args, "steps", "workers")
    trace = build_trace(spec, steps=args.steps, rid_offset=args.rid_offset)
    print(f"offered trace: {len(trace)} requests over {args.duration:.0f}s "
          f"({args.arrival}, seed {args.seed}) | digest {trace_digest(trace)}")
    client = LoadClient(args.host, args.port, timeout_s=args.timeout_s)

    async def _run():
        if args.mode == "open":
            return await client.run_open(trace)
        return await client.run_closed(trace, workers=args.workers)

    try:
        records = asyncio.run(_run())
    except ConnectionRefusedError:
        print(f"no gateway listening on {args.host}:{args.port}", file=sys.stderr)
        return 1

    s = summarize_records(records, duration_s=args.duration)
    by = ", ".join(f"{k}={v}" for k, v in s["by_status"].items())
    print(f"{args.mode}-loop replay: {s['n_completed']}/{s['n_requests']} completed "
          f"[{by}]")
    print(f"shed rate {s['shed_rate']:.1%} | throughput {s['throughput_rps']:.1f} rps | "
          f"p50 {s['p50_ms']:.1f} ms | p95 {s['p95_ms']:.1f} ms | p99 {s['p99_ms']:.1f} ms")
    if s["streamed"]:
        print(f"streaming: {s['streamed']} responses streamed, first partial led the "
              f"final frame by up to {s['stream_lead_ms_max']:.1f} ms")
    errors = [r for r in records if r.error is not None]
    if errors:
        print(f"client errors: {len(errors)} (first: {errors[0].error})", file=sys.stderr)
    if args.out:
        payload = {
            "spec": {"rate_rps": args.rate, "duration_s": args.duration,
                     "process": args.arrival, "seed": args.seed,
                     "steps": args.steps, "mode": args.mode},
            "trace_digest": trace_digest(trace),
            "summary": s,
            "records": [r.as_dict() for r in records],
        }
        groups.write_json(args.out, payload, "loadtest results")
    return 0 if not errors else 1
