"""``repro simulate`` and ``repro profile``: the distributed simulator, bare
and under the observability layer.  Both go through one DDP set-up
(:func:`make_cluster` + :func:`ddp_from_args`), so the Fig. 4 comparison —
pre-factorized model vs PowerSGD on the same cluster and data — is
configured in exactly one place."""

from __future__ import annotations

import numpy as np

from .. import nn
from .. import observability as obs
from ..compression import make_compressor
from ..core import FactorizationConfig, build_hybrid
from ..data import DataLoader, make_cifar_like, shard_dataset
from ..distributed import (
    ClusterSpec,
    CollectiveTimeoutError,
    DistributedTrainer,
    FaultSpecError,
    HierarchicalSpec,
    parse_fault_spec,
)
from ..optim import SGD
from ..utils import set_seed
from . import groups

COMPRESSORS = (
    "none", "powersgd", "signum", "qsgd", "topk", "binary", "atomo",
    "abtrain", "vargate",
)
# CLI defaults per compressor; construction goes through the registry so
# the CLI, benchmarks and property suite share one source of truth.
_COMPRESSOR_DEFAULTS = {
    "powersgd": {"rank": 2},
    "qsgd": {"levels": 16},
    "topk": {"ratio": 0.01},
    "atomo": {"budget": 2},
    "abtrain": {"rank": 4, "resync_every": 10},
    "vargate": {"threshold": 4.0},
}


def add_ddp_args(p, *, nodes: int, compressor: str, batch_size: int | None = None) -> None:
    """``batch_size=None``: the parser already has ``--batch-size`` (loader group)."""
    p.add_argument("--nodes", type=int, default=nodes, help="simulate: world size")
    p.add_argument("--compressor", choices=COMPRESSORS, default=compressor,
                   help="simulate: gradient compressor")
    if batch_size is not None:
        p.add_argument("--batch-size", type=int, default=batch_size)
    p.add_argument("--iterations", type=int, default=2, help="simulate: iterations")
    p.add_argument("--overlap", action="store_true",
                   help="bucketed allreduce overlapped with backward "
                        "(requires an allreduce-compatible compressor: "
                        "none, powersgd, abtrain, vargate)")
    p.add_argument("--bucket-mb", type=float, default=25.0,
                   help="gradient bucket size cap in MB (DDP default 25)")


def make_cluster(nodes, bandwidth, gpus_per_node=1, intra_bandwidth=100.0):
    """Flat ring, or the two-level topology when a node holds several ranks
    (-> ``ClusterSpec`` / ``HierarchicalSpec``)."""
    if gpus_per_node < 1:  # --nodes and the bandwidths are checked by the specs
        raise groups.ConfigError("--gpus-per-node must be >= 1")
    with groups.config_errors():
        if gpus_per_node == 1:
            return ClusterSpec(nodes, bandwidth_gbps=bandwidth)
        spec = HierarchicalSpec(
            nodes,
            gpus_per_node=gpus_per_node,
            inter_bandwidth_gbps=bandwidth,
            intra_bandwidth_gbps=intra_bandwidth,
        )
        _ = spec.inter_spec, spec.intra_spec  # each ring validates its own bandwidth
        return spec


def ddp_from_args(args, model, optimizer, cluster, *, noise=0.2, faults=None):
    """Dataset -> shards -> loaders -> trainer for one simulated epoch of
    ``--iterations`` steps (-> ``DistributedTrainer`` and its per-rank loaders).
    The trainer owns the legality rules (``--overlap`` needs an
    allreduce-compatible compressor); its refusal is a configuration error."""
    groups.require_at_least_one(args, "batch_size", "iterations")
    world = cluster.world_size
    ds = make_cifar_like(n=world * args.batch_size * args.iterations,
                         num_classes=args.classes, noise=noise,
                         rng=np.random.default_rng(args.seed))
    shards = shard_dataset(ds.images, ds.labels, world)
    loaders = [DataLoader(x, y, args.batch_size) for x, y in shards]
    wire = "sgd" if args.compressor == "none" else args.compressor  # registry name
    with groups.config_errors():
        trainer = DistributedTrainer(
            model,
            optimizer,
            cluster,
            compressor=make_compressor(wire, world, **_COMPRESSOR_DEFAULTS.get(wire, {})),
            faults=faults,
            overlap=args.overlap,
            bucket_mb=args.bucket_mb,
        )
    return trainer, loaders


def _print_timeline(tl) -> None:
    print(f"compute {tl.compute:.3f}s | encode {tl.encode:.3f}s | "
          f"comm {tl.comm:.3f}s | decode {tl.decode:.3f}s | total {tl.total:.3f}s")
    print(f"wire bytes per iteration: {tl.bytes_per_iteration/1e6:.2f} MB")
    if tl.overlap:
        ov = tl.overlap
        print(f"overlap: {ov['n_buckets']} buckets @ {ov['bucket_bytes']/1e6:.2f} MB | "
              f"comm raw {ov['comm_total_s']:.3f}s -> exposed {ov['comm_exposed_s']:.3f}s "
              f"({ov['overlap_fraction']:.1%} hidden)")


def add_simulate_parser(sub):
    p = sub.add_parser("simulate", help="distributed-training simulation")
    groups.add_model_args(p)
    p.add_argument("--method", choices=("vanilla", "pufferfish"), default="vanilla",
                   help="pufferfish: factorize the untrained model and simulate "
                        "the hybrid (the no-warm-up arm of Tables 8/9, not "
                        "Algorithm 1's full-rank warm-up)")
    add_ddp_args(p, nodes=8, compressor="none", batch_size=16)
    p.add_argument("--bandwidth", type=float, default=0.3, help="Gbps per link")
    groups.add_optimizer_args(
        p, optimizer="sgd", optimizer_help="composes with --compressor"
    )
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--gpus-per-node", type=int, default=1,
                   help="ranks per node; >1 switches to the two-level "
                        "hierarchical topology (intra-node fast ring + "
                        "inter-node slow ring)")
    p.add_argument("--intra-bandwidth", type=float, default=100.0,
                   help="intra-node Gbps (hierarchical topology only)")
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec: JSON file/string or compact form, e.g. "
             "'seed=42,straggler=lognormal:0.2,drop=0.01,link=0.05:0.25:3,"
             "failure=0.002:shrink' (see docs/FAULTS.md)",
    )
    return p


def run_simulate(args) -> int:
    cluster = make_cluster(args.nodes, args.bandwidth, args.gpus_per_node, args.intra_bandwidth)
    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except FaultSpecError as e:
        raise groups.ConfigError(f"bad --faults spec: {e}") from e

    set_seed(args.seed)
    model, hybrid_config = groups.model_from_args(args)
    if args.method == "pufferfish":
        model, report = build_hybrid(model, hybrid_config)
        print(f"pufferfish model: {report.compression:.2f}x smaller")

    opt = groups.optimizer_factory_from_args(args, weight_decay=0.0)(model.parameters())
    trainer, loaders = ddp_from_args(args, model, opt, cluster, noise=args.noise, faults=faults)
    try:
        tl = trainer.train_epoch(loaders)
    except CollectiveTimeoutError as e:
        print(f"simulation aborted: {e}")
        return 1
    if args.gpus_per_node > 1:
        print(f"\ncluster: {args.nodes} nodes x {args.gpus_per_node} gpus "
              f"@ {args.bandwidth} Gbps inter / {args.intra_bandwidth} Gbps intra "
              f"| compressor: {args.compressor}")
    else:
        print(f"\ncluster: {args.nodes} nodes @ {args.bandwidth} Gbps "
              f"| compressor: {args.compressor}")
    _print_timeline(tl)
    if trainer.faults is not None and trainer.faults.spec.active:
        s = trainer.faults.summary()
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(s["by_kind"].items())) or "none"
        print(f"faults (seed {faults.seed}): {s['events']} events [{kinds}]")
        print(f"  retries {s['retries']} | backoff {s['backoff_s']*1e3:.1f} ms | "
              f"recovery {s['recovery_s']:.3f}s")
    return 0


def add_profile_parser(sub):
    p = sub.add_parser(
        "profile", help="run a workload with tracing/metrics on and dump a Chrome trace"
    )
    p.add_argument("target", choices=("quickstart", "simulate"), help="workload to profile")
    p.add_argument("--out", default="trace.json", help="Chrome-trace output path")
    p.add_argument("--modules", action="store_true",
                   help="also record a span per Module.forward call")
    p.add_argument("--seed", type=int, default=0)
    groups.add_backend_arg(p)
    p.add_argument("--classes", type=int, default=4)
    groups.add_epochs_args(p, epochs=6, warmup_epochs=2)
    groups.add_loader_args(p, samples=192, batch_size=32)
    add_ddp_args(p, nodes=4, compressor="powersgd")
    return p


def _profile_quickstart(args):
    """The quickstart example's Pufferfish run, scaled by the CLI args."""
    set_seed(args.seed)
    train_loader, val_loader = groups.cifar_loaders_from_args(args)
    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1), nn.ReLU(), nn.GlobalAvgPool2d(),
        nn.Linear(32, args.classes),
    )
    trainer = groups.pufferfish_from_args(
        args, model, FactorizationConfig(rank_ratio=0.25),
        optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
    )
    trainer.fit(train_loader, val_loader)
    return trainer.history


def _profile_simulate(args):
    """A few simulator iterations (vanilla MLP on a flat 0.3 Gbps ring)."""
    from ..serve.registry import build_model

    cluster = make_cluster(args.nodes, bandwidth=0.3)
    set_seed(args.seed)
    model = build_model("mlp", args.classes, 1.0)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer, loaders = ddp_from_args(args, model, opt, cluster)
    _print_timeline(trainer.train_epoch(loaders))
    return []  # no EpochStats to reconcile the spans against


def run_profile(args) -> int:
    tracer, registry = obs.get_tracer(), obs.get_registry()
    tracer.clear()
    registry.reset()
    workload = _profile_quickstart if args.target == "quickstart" else _profile_simulate
    with obs.observe(module_spans=args.modules):
        history = workload(args)

    path = tracer.write_chrome_trace(args.out)
    print(f"\nchrome trace written to {path} ({len(tracer.spans())} spans)")
    print("open it in chrome://tracing or https://ui.perfetto.dev")

    # Reconcile the span timeline against the trainer's own accounting.
    if history:
        span_total = tracer.total("epoch")
        stats_total = sum(s.seconds for s in history)
        delta = abs(span_total - stats_total) / max(stats_total, 1e-9)
        print(f"epoch spans {span_total:.3f}s vs EpochStats.seconds "
              f"{stats_total:.3f}s (delta {100 * delta:.1f}%)")

    print("\ntop spans by exclusive time:")
    summary = sorted(tracer.summary().items(), key=lambda kv: kv[1]["exclusive"], reverse=True)
    for name, agg in summary[:12]:
        print(f"  {name:<24} calls {agg['count']:>5}  total {agg['total']:8.3f}s  "
              f"exclusive {agg['exclusive']:8.3f}s")

    counters = registry.counters()
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:<24} {counters[name]:,}")
    return 0
