"""``repro lifecycle``: the train -> factorize -> deploy pipeline — ``run``,
``promote``, ``deploy`` (optionally booting the gateway on the promoted
artifact)."""

from __future__ import annotations

import json
import sys

from .. import observability as obs
from ..utils import save_checkpoint
from . import groups
from .gateway import add_gateway_boot_args, serve_gateway


def add_run_parser(sub):
    p = sub.add_parser(
        "run",
        help="seeded pipeline: warm-up with spectrum monitoring, per-layer "
             "factorization, low-rank fine-tune with online re-factorization",
    )
    groups.add_model_args(p)
    groups.add_loader_args(p, samples=96, batch_size=32)
    p.add_argument("--val-samples", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    groups.add_epochs_args(p, epochs=4, warmup_epochs=2)
    p.add_argument("--recheck-every", type=int, default=1,
                   help="low-rank-phase spectra recheck cadence in epochs")
    p.add_argument("--energy-threshold", type=float, default=0.9,
                   help="retained spectral energy targeted per layer")
    p.add_argument("--min-rank", type=int, default=1)
    p.add_argument("--max-ratio", type=float, default=1.0,
                   help="per-layer rank cap as a fraction of full rank")
    p.add_argument("--hysteresis", type=int, default=2,
                   help="rank drift tolerated before re-factorizing")
    p.add_argument("--workers", type=int, default=1,
                   help=">1 trains under simulated DDP with full-resync "
                        "accounting on every re-factorization")
    p.add_argument("--checkpoint", default=None, metavar="NPZ",
                   help="save the trained hybrid + lineage metadata here")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the run record (summary + lineage) for "
                        "`lifecycle promote`")
    p.add_argument("--registry-dir", default=None, metavar="DIR",
                   help="also promote the run into this registry")
    p.add_argument("--name", default=None, help="registry name for --registry-dir (default: model)")
    return p


def run_run(args) -> int:
    from ..lifecycle import LifecycleConfig, PromotionRegistry, RankPolicy, run_lifecycle

    config = LifecycleConfig(
        model=args.model,
        num_classes=args.classes,
        width=args.width,
        seed=args.seed,
        train_samples=args.samples,
        val_samples=args.val_samples,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=args.momentum,
        warmup_epochs=args.warmup_epochs,
        total_epochs=args.epochs,
        recheck_every=args.recheck_every,
        rank_ratio=args.rank_ratio,
        policy=RankPolicy(
            energy_threshold=args.energy_threshold,
            min_rank=args.min_rank,
            max_ratio=args.max_ratio,
            hysteresis=args.hysteresis,
        ),
        workers=args.workers,
    )
    with obs.observe(tracing=False):
        run = run_lifecycle(config)

    s = run.summary()
    print(f"lifecycle run {run.run_id}: {args.model} (width {args.width}, "
          f"seed {args.seed}, {config.workers} worker(s))")
    for event in s["events"]:
        kind = event["event"]
        if kind == "snapshot":
            print(f"  epoch {event['epoch']:>2} [{event['phase']}] snapshot "
                  f"{event['digest']} ({event['n_layers']} layers)")
        elif kind == "retarget":
            print(f"  epoch {event['epoch']:>2} [warmup] retarget: "
                  f"{len(event['drifted'])} layer(s) drifted")
        elif kind == "factorize":
            print(f"  epoch {event['epoch']:>2} factorize: {event['replaced']} layers, "
                  f"{event['params_before']:,} -> {event['params_after']:,} params")
        elif kind == "refactorize":
            print(f"  epoch {event['epoch']:>2} REFACTORIZE: {len(event['drifted'])} "
                  f"layer(s) drifted | {event['params_after']:,} params | "
                  f"resync {event['resync_bytes']:,} B "
                  f"({event['resync_seconds'] * 1e3:.2f} ms)")
        elif kind == "final_eval":
            print(f"  final val loss {event['val_loss']:.4f} | "
                  f"val metric {event['val_metric']:.4f}")
    print(f"rank map: {len(run.rank_map)} layers "
          f"({s['n_layers_differ_from_global']} differ from the global "
          f"{args.rank_ratio} map) | digest {s['rank_map_digest']}")
    print(f"params {s['params_full']:,} -> {s['params_factorized']:,} "
          f"({s['param_reduction']:.2f}x) | MACs {s['macs_full']:,} -> "
          f"{s['macs_factorized']:,} ({s['mac_reduction']:.2f}x)")
    print(f"spectra digest: {s['spectra_digest']}")
    print(f"timeline digest: {s['timeline_digest']}")

    if args.checkpoint:
        save_checkpoint(args.checkpoint, run.model, lifecycle=run.lineage())
        print(f"checkpoint written to {args.checkpoint}")
    if args.out:
        record = {"summary": s, "lineage": run.lineage(), "checkpoint": args.checkpoint}
        groups.write_json(args.out, record, "run record")
    if args.registry_dir:
        record = PromotionRegistry(args.registry_dir).promote(run, name=args.name)
        print(f"promoted to {args.registry_dir}: {record.name} v{record.version} "
              f"({record.path})")
    return 0


def add_promote_parser(sub):
    p = sub.add_parser(
        "promote",
        help="version a run's checkpoint into the promotion registry with lineage",
    )
    p.add_argument("--run", required=True, metavar="JSON",
                   help="run record written by `lifecycle run --out`")
    p.add_argument("--registry-dir", required=True, metavar="DIR")
    p.add_argument("--checkpoint", default=None, metavar="NPZ",
                   help="override the checkpoint path in the run record")
    p.add_argument("--name", default=None, help="registry name (default: the lineage's model)")
    return p


def run_promote(args) -> int:
    from ..lifecycle import PromotionRegistry

    with groups.config_errors(), open(args.run) as f:  # unreadable, or not JSON
        record_file = json.load(f)
    checkpoint = args.checkpoint or record_file.get("checkpoint")
    if not checkpoint:
        raise groups.ConfigError("run record has no checkpoint; re-run `lifecycle run` "
                          "with --checkpoint or pass --checkpoint")
    record = PromotionRegistry(args.registry_dir).promote_artifact(
        checkpoint, record_file.get("lineage", {}), name=args.name
    )
    print(f"promoted {checkpoint} -> {record.path}")
    print(f"  {record.name} v{record.version} | parent run "
          f"{record.lineage.get('parent_run')} | rank map "
          f"{record.lineage.get('rank_map_digest')} | spectra "
          f"{record.lineage.get('spectra_digest')}")
    return 0


def add_deploy_parser(sub):
    p = sub.add_parser(
        "deploy",
        help="stage a promoted checkpoint through the cluster canary "
             "(full -> factorized hot-swap with rollback)",
    )
    p.add_argument("--registry-dir", required=True, metavar="DIR")
    p.add_argument("--name", required=True, help="promoted checkpoint name in the registry")
    p.add_argument("--version", type=int, default=None, help="checkpoint version (default: latest)")
    groups.add_scenario_args(p, phases="220x120", arrival=False)
    p.add_argument("--seed", type=int, default=0)
    groups.add_canary_args(p)
    p.add_argument("--degrade-factor", type=float, default=1.0,
                   help="scale canary latencies to inject a regression "
                        "(exercises the rollback path)")
    p.add_argument("--out", default=None, metavar="JSON", help="write the deployment report")
    p.add_argument("--gateway", action="store_true",
                   help="after a promoted verdict, boot the HTTP gateway "
                        "on the promoted checkpoint")
    add_gateway_boot_args(p)
    return p


def run_deploy(args) -> int:
    from ..cluster import parse_phases
    from ..lifecycle import (
        CorruptCheckpointError,
        DeploymentConfig,
        PromotionRegistry,
        run_deployment,
    )

    registry = PromotionRegistry(args.registry_dir)
    record = (registry.latest(args.name) if args.version is None
              else registry.get(args.name, args.version))
    with groups.config_errors():
        config = DeploymentConfig(
            phases=parse_phases(args.phases),
            window_s=args.window,
            seed=args.seed,
            canary=groups.canary_from_args(args),
            degrade_factor=args.degrade_factor,
        )
    # No path means "use the pinned profile", never "measure": the verdict
    # must not depend on the host the deploy runs on.
    baseline = groups.load_or_measure_profile(args.profile_full)
    canary = groups.load_or_measure_profile(args.profile_factorized)
    serve_config = groups.serve_config_from_args(args) if args.gateway else None

    with obs.observe(tracing=False):
        report = run_deployment(record, config, baseline, canary)

    li = record.lineage
    print(f"deploying {record.name} v{record.version} "
          f"(parent run {li.get('parent_run')}, rank map "
          f"{li.get('rank_map_digest')}) via canary ({args.phases}, seed {args.seed})")
    groups.print_canary(report.steps, report.status, report.final_fraction)
    print(f"deploy digest: {report.digest()}")
    if args.out:
        groups.write_json(args.out, report.summary(), "deployment report")

    if report.promoted and args.gateway:
        from ..gateway import ModelExecutor

        print(f"\nbooting gateway on the promoted checkpoint {record.path}")
        # The artifact knows its own architecture and rank map: the registry
        # rebuilds the exact per-layer hybrid before loading the weights.
        try:
            served = registry.materialize(record)
        except CorruptCheckpointError as e:
            print(f"cannot serve {record.name} v{record.version}: {e}", file=sys.stderr)
            return 1
        executor = ModelExecutor(served, groups.load_or_measure_profile(None, served))
        serve_gateway(executor, serve_config, args.host, args.port, args.duration, args.ready_file)
        return 0
    return 0 if report.promoted or args.allow_rollback else 1
