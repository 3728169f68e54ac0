"""Command-line experiment runner: ``python -m repro <command> ...``.

The subcommands cover the library's main entry points:

* ``train``     — train a model on a synthetic task, vanilla or Pufferfish.
* ``factorize`` — print the factorization report (params, per-layer ranks,
  SVD cost) for a model at a given rank ratio, without training.
* ``simulate``  — run the distributed simulator and print the per-epoch
  compute/encode/comm/decode breakdown for a chosen compressor.
* ``profile``   — run a workload with the observability layer enabled and
  dump a Chrome-trace timeline plus a metrics snapshot.
* ``serve``     — serve a model variant under seeded offered load with
  dynamic batching and SLO admission control (measured latencies,
  deterministic timeline for a fixed seed + profile).
* ``cluster``   — the fleet control plane over ``serve``: ``place`` packs
  replicas onto hosts and compares full vs factorized fleet cost,
  ``autoscale`` steps a seeded load scenario through the windowed
  control loop, ``canary`` walks a gated traffic shift full → factorized.
* ``gateway``   — the live twin of ``serve``: ``gateway serve`` runs a real
  asyncio HTTP server on localhost driving the same batcher + admission
  core against real inference, ``gateway loadtest`` replays a seeded
  arrival trace against it.
* ``lifecycle`` — the train → factorize → deploy pipeline: ``run`` trains
  with spectrum monitoring and online re-factorization, ``promote``
  versions the checkpoint with lineage into a promotion registry,
  ``deploy`` stages it through the cluster canary (optionally booting
  the gateway on the promoted artifact).

Examples::

    python -m repro train --model resnet18 --method pufferfish --epochs 10
    python -m repro train --task transformer --optimizer adam --fused --epochs 6
    python -m repro factorize --model vgg19 --rank-ratio 0.25
    python -m repro simulate --model resnet18 --nodes 8 --compressor powersgd
    python -m repro profile quickstart --out trace.json
    python -m repro serve --model vgg19 --variant factorized --rate 300 --slo-ms 150
    python -m repro cluster place --model vgg19 --replicas 6 --host-mem-mb 12
    python -m repro cluster autoscale --phases 250x60,450x60,250x60 --policy shed_rate
    python -m repro cluster canary --phases 400x120 --steps 0.05,0.25,0.5,1.0
    python -m repro gateway serve --model mlp --port 8123 --duration 30
    python -m repro gateway loadtest --port 8123 --rate 120 --duration 5 --seed 0
    python -m repro lifecycle run --model vgg11 --seed 7 --energy-threshold 0.75 \\
        --max-ratio 0.5 --checkpoint run.npz --out run.json
    python -m repro lifecycle promote --run run.json --registry-dir registry/
    python -m repro lifecycle deploy --registry-dir registry/ --name vgg11
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .tensor import backend as tensor_backend

__all__ = ["main", "build_parser"]

MODELS = ("mlp", "vgg11", "vgg19", "resnet18", "resnet50", "wideresnet50")
# The serving registry also covers the sequence zoo (non-image InputSpecs).
SERVE_MODELS = MODELS + ("lstm", "transformer")
COMPRESSORS = (
    "none", "powersgd", "signum", "qsgd", "topk", "binary", "atomo",
    "abtrain", "vargate",
)


def _make_model(name: str, num_classes: int, width: float):
    # The model table lives with the serving registry so the CLI and the
    # serving subsystem materialize identical architectures.
    from .serve.registry import build_model

    return build_model(name, num_classes, width)


def _hybrid_config(name: str, model, rank_ratio: float):
    from .serve.registry import hybrid_config_for

    return hybrid_config_for(name, model, rank_ratio)


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


def _compressor_name(cli_name: str) -> str:
    """CLI spelling → registry wire name."""
    return "sgd" if cli_name == "none" else cli_name


def _make_compressor(name: str, num_workers: int):
    from .compression import make_compressor

    wire = _compressor_name(name)
    return make_compressor(wire, num_workers, **_COMPRESSOR_DEFAULTS.get(wire, {}))


def _ddp_trainer(*args, **kwargs):
    """A ``DistributedTrainer``, or ``None`` (caller exits 2) after printing
    why its constructor refused the combination — the trainer owns the
    legality rules (``--overlap`` needs an allreduce-compatible compressor)."""
    from .distributed import DistributedTrainer

    try:
        return DistributedTrainer(*args, **kwargs)
    except ValueError as e:
        print(f"bad simulate configuration: {e}", file=sys.stderr)
        return None


OPTIMIZERS = ("sgd", "adam", "lamb")
# Per-optimizer CLI default learning rate (SGD matches the CIFAR recipe,
# Adam/LAMB the transformer translation task).
_OPT_DEFAULT_LR = {"sgd": 0.05, "adam": 2e-3, "lamb": 2e-3}


def _optimizer_factory(name: str, lr: float, fused: bool):
    """Factory for loop or fused optimizers; all three loop/fused pairs
    share semantics (Adam bit-exact, LAMB within its tolerance tag)."""
    from .optim import LAMB, SGD, Adam, FusedAdam, FusedLAMB, FusedSGD

    if name == "sgd":
        cls = FusedSGD if fused else SGD
        return lambda ps: cls(ps, lr=lr, momentum=0.9, weight_decay=1e-4)
    loop_cls, fused_cls = {"adam": (Adam, FusedAdam), "lamb": (LAMB, FusedLAMB)}[name]
    cls = fused_cls if fused else loop_cls
    return lambda ps: cls(ps, lr=lr)


# ---------------------------------------------------------------------------


def _train_transformer(args, opt_factory) -> int:
    """The paper's WMT16 transformer experiment at laptop scale: synthetic
    reverse-and-relabel translation, Adam/LAMB-driven, greedy-decode BLEU."""
    from . import nn
    from .core import build_hybrid
    from .data import make_translation_dataset
    from .metrics import corpus_bleu, perplexity
    from .models import Seq2SeqTransformer, transformer_hybrid_config
    from .tensor import no_grad
    from .utils import set_seed

    vocab = 20
    set_seed(args.seed)
    full = make_translation_dataset(
        n=args.samples, vocab_size=vocab, min_len=4, max_len=8,
        rng=np.random.default_rng(args.seed),
    )
    train_ds, val_ds = full.split(int(0.85 * args.samples))
    loss_fn = nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
    model = Seq2SeqTransformer(vocab_size=vocab, d_model=32, n_heads=4,
                               num_layers=2, d_ff=64, dropout=0.0, max_len=16)

    def run_epochs(m, opt, epochs):
        for _ in range(epochs):
            m.train()
            for i in range(0, len(train_ds), args.batch_size):
                src = train_ds.src[i : i + args.batch_size]
                tgt = train_ds.tgt[i : i + args.batch_size]
                opt.zero_grad()
                logits = m(src, tgt[:, :-1])
                loss_fn(logits.reshape(-1, vocab), tgt[:, 1:].reshape(-1)).backward()
                opt.step()

    if args.method == "pufferfish":
        run_epochs(model, opt_factory(model.parameters()), args.warmup_epochs)
        model, report = build_hybrid(model, transformer_hybrid_config(rank_ratio=args.rank_ratio))
        print(f"factorized: {report.params_before:,} -> {report.params_after:,} "
              f"params ({report.compression:.2f}x), SVD {report.svd_seconds*1e3:.0f} ms")
        run_epochs(model, opt_factory(model.parameters()),
                   max(args.epochs - args.warmup_epochs, 0))
    else:
        run_epochs(model, opt_factory(model.parameters()), args.epochs)

    model.eval()
    with no_grad():
        logits = model(val_ds.src, val_ds.tgt[:, :-1])
        nll = nn.CrossEntropyLoss(ignore_index=0)(
            logits.reshape(-1, vocab), val_ds.tgt[:, 1:].reshape(-1)
        )
    hyp = model.greedy_decode(val_ds.src, bos=1, eos=2, max_len=val_ds.tgt.shape[1])
    bleu = corpus_bleu([list(h) for h in hyp], [list(t) for t in val_ds.tgt],
                       strip_ids={0, 1, 2})
    print(f"val perplexity: {perplexity(float(nll.data)):.2f}")
    print(f"val BLEU: {bleu:.2f}")
    if args.checkpoint:
        from .utils import save_checkpoint

        save_checkpoint(args.checkpoint, model, epoch=args.epochs, best=bleu)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_train(args) -> int:
    from .core import PufferfishTrainer, Trainer
    from .data import DataLoader, make_cifar_like
    from .optim import MultiStepLR
    from .utils import Logger, set_seed

    if args.fused and args.amp:
        # The AMP cast round-trip rebinds every p.data each batch, which
        # would rebuild the arena (and reset optimizer state) every step.
        print("--fused is incompatible with --amp", file=sys.stderr)
        return 2
    opt_name = args.optimizer or ("adam" if args.task == "transformer" else "sgd")
    lr = args.lr if args.lr is not None else _OPT_DEFAULT_LR[opt_name]
    opt_factory = _optimizer_factory(opt_name, lr, args.fused)

    if args.task == "transformer":
        if args.amp:
            print("--task transformer does not support --amp", file=sys.stderr)
            return 2
        return _train_transformer(args, opt_factory)

    set_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    ds = make_cifar_like(n=args.samples, num_classes=args.classes, noise=args.noise, rng=rng)
    tr, va = ds.split(int(0.8 * args.samples))
    train_loader = DataLoader(tr.images, tr.labels, args.batch_size, shuffle=True)
    val_loader = DataLoader(va.images, va.labels, 2 * args.batch_size)

    model = _make_model(args.model, args.classes, args.width)
    logger = Logger(args.model)
    sched_factory = lambda opt: MultiStepLR(opt, [int(0.75 * args.epochs)], gamma=0.1)

    if args.method == "pufferfish":
        trainer = PufferfishTrainer(
            model,
            _hybrid_config(args.model, model, args.rank_ratio),
            optimizer_factory=opt_factory,
            scheduler_factory=sched_factory,
            warmup_epochs=args.warmup_epochs,
            total_epochs=args.epochs,
            amp=args.amp,
            logger=logger,
        )
        trainer.fit(train_loader, val_loader)
        report = trainer.report
        print(f"\nfactorized: {report.params_before:,} -> {report.params_after:,} "
              f"params ({report.compression:.2f}x), SVD {report.svd_seconds*1e3:.0f} ms")
        history = trainer.history
        final_model = trainer.hybrid_model
    else:
        opt = opt_factory(model.parameters())
        trainer = Trainer(model, opt, scheduler=sched_factory(opt), amp=args.amp,
                          logger=logger)
        trainer.fit(train_loader, val_loader, epochs=args.epochs)
        history = trainer.history
        final_model = model

    best = max(s.val_metric for s in history)
    print(f"best val accuracy: {best:.4f}")
    if args.checkpoint:
        from .utils import save_checkpoint

        save_checkpoint(args.checkpoint, final_model, epoch=args.epochs, best=best)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_factorize(args) -> int:
    from .core import build_hybrid
    from .metrics import measure_macs
    from .tensor import Tensor
    from .utils import set_seed

    set_seed(args.seed)
    model = _make_model(args.model, args.classes, args.width)
    config = _hybrid_config(args.model, model, args.rank_ratio)
    hybrid, report = build_hybrid(model, config)

    print(f"model: {args.model} (width {args.width})")
    print(f"parameters: {report.params_before:,} -> {report.params_after:,} "
          f"({report.compression:.2f}x smaller)")
    print(f"SVD cost: {report.svd_seconds*1e3:.1f} ms")
    if args.model != "mlp":
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        print(f"MACs: {measure_macs(model, x)/1e6:.1f} M -> "
              f"{measure_macs(hybrid, x)/1e6:.1f} M")
    print(f"\nfactorized layers ({len(report.replaced)}):")
    for path, rank in report.replaced:
        print(f"  {path:<40} rank {rank}")
    print(f"kept full-rank ({len(report.kept)}): {', '.join(report.kept)}")
    return 0


def cmd_simulate(args) -> int:
    from .core import build_hybrid
    from .data import DataLoader, make_cifar_like, shard_dataset
    from .distributed import (
        ClusterSpec,
        CollectiveTimeoutError,
        FaultSpecError,
        HierarchicalSpec,
        parse_fault_spec,
    )
    from .optim import SGD, FusedSGD
    from .utils import set_seed

    if args.gpus_per_node < 1:
        print("--gpus-per-node must be >= 1", file=sys.stderr)
        return 2
    faults = None
    if args.faults:
        try:
            faults = parse_fault_spec(args.faults)
        except FaultSpecError as e:
            print(f"bad --faults spec: {e}", file=sys.stderr)
            return 2

    set_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    model = _make_model(args.model, args.classes, args.width)
    if args.method == "pufferfish":
        model, report = build_hybrid(model, _hybrid_config(args.model, model, args.rank_ratio))
        print(f"pufferfish model: {report.compression:.2f}x smaller")

    if args.gpus_per_node > 1:
        cluster = HierarchicalSpec(
            args.nodes,
            gpus_per_node=args.gpus_per_node,
            inter_bandwidth_gbps=args.bandwidth,
            intra_bandwidth_gbps=args.intra_bandwidth,
        )
    else:
        cluster = ClusterSpec(args.nodes, bandwidth_gbps=args.bandwidth)
    world = cluster.world_size
    n = world * args.batch_size * args.iterations
    ds = make_cifar_like(n=n, num_classes=args.classes, noise=args.noise, rng=rng)
    shards = shard_dataset(ds.images, ds.labels, world)
    loaders = [DataLoader(x, y, args.batch_size) for x, y in shards]

    # The fused optimizers are the default fast path: every parameter
    # receives an averaged gradient here, so FusedSGD/FusedAdam are
    # bit-exact vs their per-tensor loops (FusedLAMB within its
    # tolerance tag), whatever --compressor / --overlap say.
    opt_name = args.optimizer
    lr = args.lr if args.lr is not None else _OPT_DEFAULT_LR[opt_name]
    if opt_name == "sgd":
        opt_cls = FusedSGD if args.fused else SGD
        opt = opt_cls(model.parameters(), lr=lr, momentum=0.9)
    else:
        opt = _optimizer_factory(opt_name, lr, args.fused)(model.parameters())
    trainer = _ddp_trainer(
        model, opt, cluster,
        compressor=_make_compressor(args.compressor, world),
        faults=faults,
        overlap=args.overlap,
        bucket_mb=args.bucket_mb,
    )
    if trainer is None:
        return 2
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
    print(f"compute {tl.compute:.3f}s | encode {tl.encode:.3f}s | "
          f"comm {tl.comm:.3f}s | decode {tl.decode:.3f}s | total {tl.total:.3f}s")
    print(f"wire bytes per iteration: {tl.bytes_per_iteration/1e6:.2f} MB")
    if tl.overlap:
        ov = tl.overlap
        print(f"overlap: {ov['n_buckets']} buckets @ {ov['bucket_bytes']/1e6:.2f} MB | "
              f"comm raw {ov['comm_total_s']:.3f}s -> exposed {ov['comm_exposed_s']:.3f}s "
              f"({ov['overlap_fraction']:.1%} hidden)")
    if trainer.faults is not None and trainer.faults.spec.active:
        s = trainer.faults.summary()
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(s["by_kind"].items())) or "none"
        print(f"faults (seed {faults.seed}): {s['events']} events [{kinds}]")
        print(f"  retries {s['retries']} | backoff {s['backoff_s']*1e3:.1f} ms | "
              f"recovery {s['recovery_s']:.3f}s")
    return 0


def cmd_serve(args) -> int:
    from . import observability as obs
    from .serve import (
        ArrivalSpec,
        BatchPolicy,
        LatencyProfile,
        ServeConfig,
        ServeSimulator,
        default_registry,
        generate_arrivals,
        measure_latency_profile,
    )

    try:
        spec = ArrivalSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            process=args.arrival,
            seed=args.seed,
            burst_factor=args.burst_factor,
            burst_prob=args.burst_prob,
        )
        config = ServeConfig(
            slo_s=args.slo_ms / 1e3,
            policy=BatchPolicy(args.max_batch, args.max_wait_ms / 1e3),
            replicas=args.replicas,
        )
    except ValueError as e:
        print(f"bad serve configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        served = default_registry().materialize(
            args.model,
            args.variant,
            num_classes=args.classes,
            width=args.width,
            rank_ratio=args.rank_ratio,
            seed=args.seed,
            checkpoint=args.checkpoint,
        )
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

        if args.latency_profile:
            profile = LatencyProfile.load(args.latency_profile)
            print(f"latency profile loaded from {args.latency_profile}")
        else:
            profile = measure_latency_profile(
                served.model,
                served.input_spec,
                repeats=args.profile_repeats,
                meta={"model": args.model, "variant": args.variant, "width": args.width},
            )
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
    finally:
        obs.disable_metrics()

    s = report.summary()
    print(f"\noffered load: {args.rate:.0f} rps {args.arrival} x {args.duration:.0f}s "
          f"(seed {args.seed}) -> {s['n_requests']} requests")
    print(f"serving: {args.replicas} replica(s) | batch <= {args.max_batch} | "
          f"wait <= {args.max_wait_ms:.0f} ms | SLO {args.slo_ms:.0f} ms")
    print(f"completed {s['n_completed']} | shed {s['n_shed_admission']} at admission, "
          f"{s['n_shed_deadline']} past deadline (shed rate {s['shed_rate']:.1%})")
    print(f"throughput {s['throughput_rps']:.1f} rps | goodput {s['goodput_rps']:.1f} rps | "
          f"SLO miss (served) {s['slo_miss_rate']:.1%}")
    print(f"latency p50 {s['p50_ms']:.1f} ms | p95 {s['p95_ms']:.1f} ms | "
          f"p99 {s['p99_ms']:.1f} ms")
    print(f"batches {s['n_batches']} (mean size {s['mean_batch_size']:.1f}) | "
          f"peak queue depth {s['queue_depth_max']}")
    print(f"timeline digest: {s['timeline_digest']}")
    if args.timeline:
        import json as _json

        with open(args.timeline, "w") as f:
            _json.dump(
                {"summary": s, "timeline": report.timeline(),
                 "batches": [b.as_dict() for b in report.batches]},
                f, indent=2, sort_keys=True,
            )
        print(f"timeline written to {args.timeline}")
    return 0


# -- gateway ----------------------------------------------------------------


def _gateway_executor(args):
    """Build the inference executor + the profile admission reasons about."""
    from .serve import LatencyProfile, default_registry, measure_latency_profile

    profile = None
    if args.latency_profile:
        profile = LatencyProfile.load(args.latency_profile)
    if args.executor == "profile":
        if profile is None:
            raise ValueError("--executor profile requires --latency-profile")
        from .gateway import ProfileExecutor

        return ProfileExecutor(profile)
    served = default_registry().materialize(
        args.model,
        args.variant,
        num_classes=args.classes,
        width=args.width,
        rank_ratio=args.rank_ratio,
        seed=args.seed,
        checkpoint=args.checkpoint,
    )
    if profile is None:
        profile = measure_latency_profile(
            served.model,
            served.input_spec,
            meta={"model": args.model, "variant": args.variant},
        )
    from .gateway import ModelExecutor

    return ModelExecutor(served, profile)


def cmd_gateway_serve(args) -> int:
    import asyncio
    import signal

    from . import observability as obs
    from .serve import BatchPolicy, ServeConfig

    try:
        config = ServeConfig(
            slo_s=args.slo_ms / 1e3,
            policy=BatchPolicy(args.max_batch, args.max_wait_ms / 1e3),
            replicas=args.replicas,
        )
        executor = _gateway_executor(args)
    except (ValueError, FileNotFoundError) as e:
        print(f"bad gateway configuration: {e}", file=sys.stderr)
        return 2

    from .gateway import GatewayServer

    obs.enable_metrics()
    try:
        server = GatewayServer(executor, config, host=args.host, port=args.port)

        async def _main():
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-unix loop, or running off the main thread
            await server.start()
            desc = executor.describe()
            print(f"gateway listening on http://{server.host}:{server.port} "
                  f"({desc['executor']} executor, {args.replicas} replica(s), "
                  f"batch <= {args.max_batch}, SLO {args.slo_ms:.0f} ms)", flush=True)
            if args.ready_file:
                with open(args.ready_file, "w") as f:
                    f.write(str(server.port))
            if args.duration is not None:
                loop.call_later(args.duration, stop.set)
            try:
                await stop.wait()
            finally:
                await server.stop()
            return server.report()

        report = asyncio.run(_main())
    finally:
        obs.disable_metrics()

    s = report.summary()
    shed = report.shed_by_reason()
    print(f"\nserved {s['n_requests']} requests: {s['n_completed']} completed, "
          f"{s['n_shed_admission']} shed at admission, {s['n_shed_deadline']} past "
          f"deadline, {shed.get('shutdown', 0)} shed at shutdown")
    print(f"throughput {s['throughput_rps']:.1f} rps | shed rate {s['shed_rate']:.1%} | "
          f"p50 {s['p50_ms']:.1f} ms | p95 {s['p95_ms']:.1f} ms")
    print(f"batches {s['n_batches']} (mean size {s['mean_batch_size']:.1f}) | "
          f"timeline digest: {s['timeline_digest']}")
    if args.report:
        import json as _json

        with open(args.report, "w") as f:
            _json.dump(
                {"summary": s, "timeline": report.timeline(),
                 "batches": [b.as_dict() for b in report.batches]},
                f, indent=2, sort_keys=True,
            )
        print(f"report written to {args.report}")
    return 0


def cmd_gateway_loadtest(args) -> int:
    import asyncio

    from .serve import ArrivalSpec

    try:
        spec = ArrivalSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            process=args.arrival,
            seed=args.seed,
            burst_factor=args.burst_factor,
            burst_prob=args.burst_prob,
            window_s=args.window_s,
        )
        if args.steps < 1:
            raise ValueError("--steps must be >= 1")
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
    except ValueError as e:
        print(f"bad loadtest configuration: {e}", file=sys.stderr)
        return 2

    from .gateway import LoadClient, build_trace, summarize_records, trace_digest

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
        import json as _json

        with open(args.out, "w") as f:
            _json.dump(
                {"spec": {"rate_rps": args.rate, "duration_s": args.duration,
                          "process": args.arrival, "seed": args.seed,
                          "steps": args.steps, "mode": args.mode},
                 "trace_digest": trace_digest(trace),
                 "summary": s,
                 "records": [r.as_dict() for r in records]},
                f, indent=2, sort_keys=True,
            )
        print(f"loadtest results written to {args.out}")
    return 0 if not errors else 1


# -- cluster ----------------------------------------------------------------


def _cluster_served(args, variant: str):
    """Materialize one variant for exact memory accounting."""
    from .serve import default_registry

    return default_registry().materialize(
        args.model,
        variant,
        num_classes=args.classes,
        width=args.width,
        rank_ratio=args.rank_ratio,
        seed=args.seed,
    )


def _cluster_profile(args, served, path):
    """Load a saved latency profile, or measure one from the live model."""
    from .serve import LatencyProfile, measure_latency_profile

    if path:
        return LatencyProfile.load(path)
    return measure_latency_profile(
        served.model,
        served.input_spec,
        meta={"model": served.name, "variant": served.variant},
    )


def cmd_cluster_place(args) -> int:
    from . import observability as obs
    from .cluster import ClusterConfigError, HostSpec, lower_bound_hosts, pack, replica_spec_for

    try:
        host = HostSpec(
            mem_bytes=int(args.host_mem_mb * 1e6),
            compute_rps=args.host_rps,
            cost=args.host_cost,
        )
        if args.replicas < 1:
            raise ClusterConfigError("--replicas must be >= 1")
    except ClusterConfigError as e:
        print(f"bad cluster configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        results = {}
        for variant, path in (
            ("full", args.profile_full),
            ("factorized", args.profile_factorized),
        ):
            served = _cluster_served(args, variant)
            profile = _cluster_profile(args, served, path)
            replica = replica_spec_for(served, profile, overhead_bytes=int(args.overhead_mb * 1e6))
            fleet = [replica] * args.replicas
            try:
                res = pack(fleet, host, policy=args.placement, max_hosts=args.max_hosts)
            except ClusterConfigError as e:
                print(f"bad cluster configuration: {e}", file=sys.stderr)
                return 2
            results[variant] = (replica, res)
            print(f"{variant}: {served.params:,} params "
                  f"({replica.mem_bytes / 1e6:.2f} MB/replica, "
                  f"{replica.capacity_rps:.0f} rps/replica)")
            print(f"  {args.replicas} replicas -> {res.n_hosts} hosts "
                  f"({args.placement}, lower bound {lower_bound_hosts(fleet, host)}) | "
                  f"fleet cost {res.fleet_cost:.1f} | "
                  f"mem packed {res.mem_utilization:.1%} | rejected {len(res.rejected)}")
    finally:
        obs.disable_metrics()

    full_hosts = results["full"][1].n_hosts
    fact_hosts = results["factorized"][1].n_hosts
    if full_hosts and fact_hosts:
        print(f"\nfactorized fleet uses {fact_hosts}/{full_hosts} hosts "
              f"({full_hosts - fact_hosts} fewer) for the same replica count")
    if args.out:
        import json as _json

        with open(args.out, "w") as f:
            _json.dump(
                {v: res.as_dict() for v, (_, res) in results.items()},
                f, indent=2, sort_keys=True,
            )
        print(f"placement written to {args.out}")
    return 0


def cmd_cluster_autoscale(args) -> int:
    from . import observability as obs
    from .cluster import (
        ClusterAutoscaler,
        ClusterConfigError,
        ClusterScenario,
        HostSpec,
        PoolConfig,
        make_policy,
        parse_phases,
        replica_spec_for,
    )
    from .serve import BatchPolicy

    try:
        scenario = ClusterScenario(
            parse_phases(args.phases),
            window_s=args.window,
            process=args.arrival,
            seed=args.seed,
        )
        policy_kwargs = {}
        if args.target is not None:
            policy_kwargs["target"] = args.target
        if args.stable_windows is not None:
            policy_kwargs["stable_windows"] = args.stable_windows
        policy = make_policy(args.policy, **policy_kwargs)
        host = None
        if args.host_mem_mb is not None:
            host = HostSpec(
                mem_bytes=int(args.host_mem_mb * 1e6), compute_rps=args.host_rps
            )
    except ClusterConfigError as e:
        print(f"bad cluster configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        served = _cluster_served(args, args.variant)
        profile = _cluster_profile(args, served, args.latency_profile)
        try:
            pool = PoolConfig(
                name=f"{args.model}:{args.variant}",
                replica=replica_spec_for(served, profile),
                profile=profile,
                slo_s=args.slo_ms / 1e3,
                policy=policy,
                batch=BatchPolicy(args.max_batch, args.max_wait_ms / 1e3),
                initial_replicas=args.initial_replicas,
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
                cooldown_windows=args.cooldown,
            )
            scaler = ClusterAutoscaler(scenario, [pool], host_spec=host)
        except ClusterConfigError as e:
            print(f"bad cluster configuration: {e}", file=sys.stderr)
            return 2
        report = scaler.run()
    finally:
        obs.disable_metrics()

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
        import json as _json

        with open(args.timeline, "w") as f:
            _json.dump(
                {"summary": s, "windows": report.timeline(),
                 "events": [e.as_dict() for e in report.events]},
                f, indent=2, sort_keys=True,
            )
        print(f"timeline written to {args.timeline}")
    return 0


def cmd_cluster_canary(args) -> int:
    from . import observability as obs
    from .cluster import CanaryConfig, ClusterConfigError, ClusterScenario, parse_phases, run_canary
    from .serve import BatchPolicy

    try:
        steps = tuple(float(x) for x in args.steps.split(","))
    except ValueError:
        print(f"bad cluster configuration: --steps must be comma-separated "
              f"fractions, got {args.steps!r}", file=sys.stderr)
        return 2
    try:
        scenario = ClusterScenario(
            parse_phases(args.phases),
            window_s=args.window,
            process=args.arrival,
            seed=args.seed,
        )
        config = CanaryConfig(
            steps=steps,
            windows_per_step=args.windows_per_step,
            shed_delta_tolerance=args.tolerance,
            slo_s=args.slo_ms / 1e3,
            batch=BatchPolicy(args.max_batch, args.max_wait_ms / 1e3),
        )
    except ClusterConfigError as e:
        print(f"bad cluster configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        full = _cluster_served(args, "full")
        fact = _cluster_served(args, "factorized")
        full_profile = _cluster_profile(args, full, args.profile_full)
        fact_profile = _cluster_profile(args, fact, args.profile_factorized)
        try:
            report = run_canary(scenario, full_profile, fact_profile, config)
        except ClusterConfigError as e:
            print(f"bad cluster configuration: {e}", file=sys.stderr)
            return 2
    finally:
        obs.disable_metrics()

    print(f"canary rollout {args.model} full -> factorized "
          f"({args.phases}, seed {args.seed})")
    for rec in report.steps:
        verdict = "advance" if rec.advanced else "ROLLBACK"
        print(f"  step {rec.step}: {rec.fraction:>5.0%} canary | "
              f"baseline shed {rec.baseline_shed:.2%} ({rec.baseline_replicas} rep) | "
              f"canary shed {rec.canary_shed:.2%} ({rec.canary_replicas} rep) | "
              f"delta {rec.shed_delta:+.2%} -> {verdict}")
    print(f"status: {report.status} (final fraction {report.final_fraction:.0%})")
    print(f"timeline digest: {report.digest()}")
    return 0 if report.status == "promoted" or args.allow_rollback else 1


# -- lifecycle --------------------------------------------------------------


def cmd_lifecycle_run(args) -> int:
    import json as _json

    from . import observability as obs
    from .lifecycle import (
        LifecycleConfig,
        LifecycleConfigError,
        PromotionRegistry,
        RankPolicy,
        run_lifecycle,
    )
    from .utils import save_checkpoint

    try:
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
    except LifecycleConfigError as e:
        print(f"bad lifecycle configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        run = run_lifecycle(config)
    finally:
        obs.disable_metrics()

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
        with open(args.out, "w") as f:
            _json.dump(
                {"summary": s, "lineage": run.lineage(), "checkpoint": args.checkpoint},
                f, indent=2, sort_keys=True,
            )
        print(f"run record written to {args.out}")
    if args.registry_dir:
        record = PromotionRegistry(args.registry_dir).promote(run, name=args.name)
        print(f"promoted to {args.registry_dir}: {record.name} v{record.version} "
              f"({record.path})")
    return 0


def cmd_lifecycle_promote(args) -> int:
    import json as _json

    from .lifecycle import PromotionError, PromotionRegistry

    try:
        with open(args.run) as f:
            record_file = _json.load(f)
    except (OSError, _json.JSONDecodeError) as e:
        print(f"bad lifecycle configuration: cannot read run record: {e}",
              file=sys.stderr)
        return 2
    checkpoint = args.checkpoint or record_file.get("checkpoint")
    lineage = record_file.get("lineage", {})
    if not checkpoint:
        print("bad lifecycle configuration: run record has no checkpoint; "
              "re-run `lifecycle run` with --checkpoint or pass --checkpoint",
              file=sys.stderr)
        return 2
    try:
        record = PromotionRegistry(args.registry_dir).promote_artifact(
            checkpoint, lineage, name=args.name
        )
    except PromotionError as e:
        print(f"promotion failed: {e}", file=sys.stderr)
        return 2
    print(f"promoted {checkpoint} -> {record.path}")
    print(f"  {record.name} v{record.version} | parent run "
          f"{record.lineage.get('parent_run')} | rank map "
          f"{record.lineage.get('rank_map_digest')} | spectra "
          f"{record.lineage.get('spectra_digest')}")
    return 0


def cmd_lifecycle_deploy(args) -> int:
    import json as _json

    from . import observability as obs
    from .cluster import CanaryConfig, ClusterConfigError, parse_phases
    from .lifecycle import (
        DeploymentConfig,
        PromotionError,
        PromotionRegistry,
        run_deployment,
    )
    from .serve import BatchPolicy, LatencyProfile

    registry = PromotionRegistry(args.registry_dir)
    try:
        if args.version is not None:
            record = registry.get(args.name, args.version)
        else:
            record = registry.latest(args.name)
        steps = tuple(float(x) for x in args.steps.split(","))
        config = DeploymentConfig(
            phases=parse_phases(args.phases),
            window_s=args.window,
            seed=args.seed,
            canary=CanaryConfig(
                steps=steps,
                windows_per_step=args.windows_per_step,
                shed_delta_tolerance=args.tolerance,
                slo_s=args.slo_ms / 1e3,
                batch=BatchPolicy(args.max_batch, args.max_wait_ms / 1e3),
            ),
            degrade_factor=args.degrade_factor,
        )
        baseline = (
            LatencyProfile.load(args.profile_full) if args.profile_full else None
        )
        canary = (
            LatencyProfile.load(args.profile_factorized)
            if args.profile_factorized
            else None
        )
    except (PromotionError, ClusterConfigError, ValueError, OSError) as e:
        print(f"bad lifecycle configuration: {e}", file=sys.stderr)
        return 2

    obs.enable_metrics()
    try:
        try:
            report = run_deployment(record, config, baseline, canary)
        except ClusterConfigError as e:
            print(f"bad lifecycle configuration: {e}", file=sys.stderr)
            return 2
    finally:
        obs.disable_metrics()

    li = record.lineage
    print(f"deploying {record.name} v{record.version} "
          f"(parent run {li.get('parent_run')}, rank map "
          f"{li.get('rank_map_digest')}) via canary ({args.phases}, seed {args.seed})")
    for rec in report.steps:
        verdict = "advance" if rec["advanced"] else "ROLLBACK"
        print(f"  step {rec['step']}: {rec['fraction']:>5.0%} canary | "
              f"baseline shed {rec['baseline_shed']:.2%} | "
              f"canary shed {rec['canary_shed']:.2%} | "
              f"delta {rec['shed_delta']:+.2%} -> {verdict}")
    print(f"status: {report.status} (final fraction {report.final_fraction:.0%})")
    print(f"deploy digest: {report.digest()}")
    if args.out:
        with open(args.out, "w") as f:
            _json.dump(report.summary(), f, indent=2, sort_keys=True)
        print(f"deployment report written to {args.out}")

    if report.promoted and args.gateway:
        print(f"\nbooting gateway on the promoted checkpoint {record.path}")
        gw = argparse.Namespace(
            model=li.get("model", record.name),
            variant="factorized",
            classes=int(li.get("num_classes", 4)),
            width=float(li.get("width", 0.25)),
            rank_ratio=0.25,
            seed=int(li.get("seed", 0)),
            checkpoint=record.path,
            executor="model",
            latency_profile=None,
            host=args.host,
            port=args.port,
            slo_ms=args.slo_ms,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            replicas=args.replicas,
            duration=args.duration,
            ready_file=args.ready_file,
            report=None,
        )
        return cmd_gateway_serve(gw)
    return 0 if report.promoted or args.allow_rollback else 1


def _profile_quickstart(args):
    """The quickstart example's Pufferfish run, scaled by the CLI args."""
    from . import nn
    from .core import FactorizationConfig, PufferfishTrainer
    from .data import DataLoader, make_cifar_like
    from .optim import SGD, MultiStepLR
    from .utils import set_seed

    set_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    ds = make_cifar_like(n=args.samples, num_classes=args.classes, noise=0.2, rng=rng)
    tr, va = ds.split(int(0.8 * args.samples))
    train_loader = DataLoader(tr.images, tr.labels, args.batch_size, shuffle=True)
    val_loader = DataLoader(va.images, va.labels, 2 * args.batch_size)

    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1), nn.ReLU(), nn.GlobalAvgPool2d(),
        nn.Linear(32, args.classes),
    )
    trainer = PufferfishTrainer(
        model,
        FactorizationConfig(rank_ratio=0.25),
        optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
        warmup_epochs=args.warmup_epochs,
        total_epochs=args.epochs,
    )
    trainer.fit(train_loader, val_loader)
    return trainer.history


def _profile_simulate(args):
    """A few simulator iterations (vanilla model, chosen compressor)."""
    from .data import DataLoader, make_cifar_like, shard_dataset
    from .distributed import ClusterSpec
    from .optim import SGD
    from .utils import set_seed

    set_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    model = _make_model("mlp", args.classes, 1.0)
    n = args.nodes * args.batch_size * args.iterations
    ds = make_cifar_like(n=n, num_classes=args.classes, noise=0.2, rng=rng)
    shards = shard_dataset(ds.images, ds.labels, args.nodes)
    loaders = [DataLoader(x, y, args.batch_size) for x, y in shards]
    cluster = ClusterSpec(args.nodes, bandwidth_gbps=0.3)
    trainer = _ddp_trainer(
        model,
        SGD(model.parameters(), lr=0.05, momentum=0.9),
        cluster,
        compressor=_make_compressor(args.compressor, args.nodes),
        overlap=args.overlap,
        bucket_mb=args.bucket_mb,
    )
    if trainer is None:
        return None
    tl = trainer.train_epoch(loaders)
    print(f"timeline: compute {tl.compute:.3f}s | encode {tl.encode:.3f}s | "
          f"comm {tl.comm:.3f}s | decode {tl.decode:.3f}s")
    if tl.overlap:
        ov = tl.overlap
        print(f"overlap: {ov['n_buckets']} buckets | "
              f"{ov['overlap_fraction']:.1%} of comm hidden")
    return []


def cmd_profile(args) -> int:
    from . import observability as obs

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    tracer.clear()
    registry.reset()
    obs.enable(module_spans=args.modules)
    try:
        if args.target == "quickstart":
            history = _profile_quickstart(args)
        else:
            history = _profile_simulate(args)
    finally:
        obs.disable()
    if history is None:  # the trainer refused the configuration
        return 2

    path = tracer.write_chrome_trace(args.out)
    spans = tracer.spans()
    print(f"\nchrome trace written to {path} ({len(spans)} spans)")
    print("open it in chrome://tracing or https://ui.perfetto.dev")

    # Reconcile the span timeline against the trainer's own accounting.
    if history:
        span_total = tracer.total("epoch")
        stats_total = sum(s.seconds for s in history)
        delta = abs(span_total - stats_total) / max(stats_total, 1e-9)
        print(f"epoch spans {span_total:.3f}s vs EpochStats.seconds "
              f"{stats_total:.3f}s (delta {100 * delta:.1f}%)")

    print("\ntop spans by exclusive time:")
    summary = sorted(
        tracer.summary().items(), key=lambda kv: kv[1]["exclusive"], reverse=True
    )
    for name, agg in summary[:12]:
        print(f"  {name:<24} calls {agg['count']:>5}  total {agg['total']:8.3f}s  "
              f"exclusive {agg['exclusive']:8.3f}s")

    counters = registry.counters()
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:<24} {counters[name]:,}")
    return 0


# ---------------------------------------------------------------------------


def add_backend_arg(p) -> None:
    p.add_argument("--backend", choices=tensor_backend.available(), default=None,
                   help="tensor op backend (default: $REPRO_BACKEND or numpy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=MODELS):
        p.add_argument("--model", choices=models, default="resnet18")
        p.add_argument("--width", type=float, default=0.25,
                       help="width multiplier (1.0 = paper architecture)")
        p.add_argument("--classes", type=int, default=4)
        p.add_argument("--rank-ratio", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=0)
        add_backend_arg(p)

    p_train = sub.add_parser("train", help="train on a synthetic task")
    common(p_train)
    p_train.add_argument("--task", choices=("cifar", "transformer"), default="cifar",
                         help="cifar: image classification (--model/--width apply); "
                              "transformer: reverse-and-relabel translation "
                              "(Seq2SeqTransformer, Adam-driven, greedy BLEU)")
    p_train.add_argument("--optimizer", choices=OPTIMIZERS, default=None,
                         help="default: sgd for cifar, adam for transformer")
    p_train.add_argument("--method", choices=("vanilla", "pufferfish"), default="pufferfish")
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--warmup-epochs", type=int, default=3)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--lr", type=float, default=None,
                         help="default: 0.05 for sgd, 2e-3 for adam/lamb")
    p_train.add_argument("--samples", type=int, default=512)
    p_train.add_argument("--noise", type=float, default=0.2)
    p_train.add_argument("--amp", action="store_true", help="mixed-precision emulation")
    p_train.add_argument("--fused", action="store_true",
                         help="fused flat-arena optimizer updates (SGD/Adam bit-exact "
                              "when every parameter gets a gradient, LAMB within its "
                              "tolerance tag; incompatible with --amp)")
    p_train.add_argument("--checkpoint", default=None, help="write final .npz checkpoint")
    p_train.set_defaults(func=cmd_train)

    p_fact = sub.add_parser("factorize", help="print the factorization report")
    common(p_fact)
    p_fact.set_defaults(func=cmd_factorize)

    p_sim = sub.add_parser("simulate", help="distributed-training simulation")
    common(p_sim)
    p_sim.add_argument("--method", choices=("vanilla", "pufferfish"), default="vanilla")
    p_sim.add_argument("--nodes", type=int, default=8)
    p_sim.add_argument("--compressor", choices=COMPRESSORS, default="none")
    p_sim.add_argument("--bandwidth", type=float, default=0.3, help="Gbps per link")
    p_sim.add_argument("--batch-size", type=int, default=16)
    p_sim.add_argument("--iterations", type=int, default=2)
    p_sim.add_argument("--optimizer", choices=OPTIMIZERS, default="sgd",
                       help="composes with --fused and --compressor")
    p_sim.add_argument("--lr", type=float, default=None,
                       help="default: 0.05 for sgd, 2e-3 for adam/lamb")
    p_sim.add_argument("--noise", type=float, default=0.2)
    p_sim.add_argument("--overlap", action="store_true",
                       help="bucketed allreduce overlapped with backward "
                            "(requires an allreduce-compatible compressor: "
                            "none, powersgd, abtrain, vargate)")
    p_sim.add_argument("--gpus-per-node", type=int, default=1,
                       help="ranks per node; >1 switches to the two-level "
                            "hierarchical topology (intra-node fast ring + "
                            "inter-node slow ring)")
    p_sim.add_argument("--intra-bandwidth", type=float, default=100.0,
                       help="intra-node Gbps (hierarchical topology only)")
    p_sim.add_argument("--bucket-mb", type=float, default=25.0,
                       help="gradient bucket size cap in MB (DDP default 25)")
    p_sim.add_argument("--fused", action=argparse.BooleanOptionalAction, default=True,
                       help="fused flat-arena optimizer updates (bit-exact for "
                            "sgd/adam; --no-fused for the per-tensor loop)")
    p_sim.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec: JSON file/string or compact form, e.g. "
             "'seed=42,straggler=lognormal:0.2,drop=0.01,link=0.05:0.25:3,"
             "failure=0.002:shrink' (see docs/FAULTS.md)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_prof = sub.add_parser(
        "profile", help="run a workload with tracing/metrics on and dump a Chrome trace"
    )
    p_prof.add_argument("target", choices=("quickstart", "simulate"),
                        help="workload to profile")
    p_prof.add_argument("--out", default="trace.json", help="Chrome-trace output path")
    p_prof.add_argument("--modules", action="store_true",
                        help="also record a span per Module.forward call")
    p_prof.add_argument("--seed", type=int, default=0)
    add_backend_arg(p_prof)
    p_prof.add_argument("--classes", type=int, default=4)
    p_prof.add_argument("--epochs", type=int, default=6)
    p_prof.add_argument("--warmup-epochs", type=int, default=2)
    p_prof.add_argument("--samples", type=int, default=192)
    p_prof.add_argument("--batch-size", type=int, default=32)
    p_prof.add_argument("--nodes", type=int, default=4, help="simulate: world size")
    p_prof.add_argument("--compressor", choices=COMPRESSORS, default="powersgd",
                        help="simulate: gradient compressor")
    p_prof.add_argument("--iterations", type=int, default=2, help="simulate: iterations")
    p_prof.add_argument("--overlap", action="store_true",
                        help="simulate: bucketed comm/compute overlap "
                             "(requires an allreduce-compatible compressor)")
    p_prof.add_argument("--bucket-mb", type=float, default=25.0,
                        help="simulate: gradient bucket size cap in MB")
    p_prof.set_defaults(func=cmd_profile)

    p_serve = sub.add_parser(
        "serve",
        help="serve a model variant under seeded load with dynamic batching "
             "and SLO admission control",
    )
    common(p_serve, models=SERVE_MODELS)
    p_serve.add_argument("--variant", choices=("full", "factorized"), default="full")
    p_serve.add_argument("--rate", type=float, default=100.0,
                         help="mean offered load in requests/second")
    p_serve.add_argument("--duration", type=float, default=10.0,
                         help="offered-load duration in (modeled) seconds")
    p_serve.add_argument("--slo-ms", type=float, default=150.0,
                         help="per-request latency SLO in milliseconds")
    p_serve.add_argument("--replicas", type=int, default=1)
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="dynamic batcher max_batch_size")
    p_serve.add_argument("--max-wait-ms", type=float, default=10.0,
                         help="dynamic batcher deadline flush (oldest request's "
                              "max queueing wait)")
    p_serve.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")
    p_serve.add_argument("--burst-factor", type=float, default=4.0,
                         help="bursty: in-burst rate multiplier")
    p_serve.add_argument("--burst-prob", type=float, default=0.1,
                         help="bursty: probability a 1s window is a burst")
    p_serve.add_argument("--checkpoint", default=None,
                         help="load model weights from a .npz checkpoint")
    p_serve.add_argument("--latency-profile", default=None, metavar="JSON",
                         help="replay a saved latency profile instead of measuring "
                              "(makes the whole run machine-independent)")
    p_serve.add_argument("--save-profile", default=None, metavar="JSON",
                         help="write the measured latency profile for later replay")
    p_serve.add_argument("--profile-repeats", type=int, default=3,
                         help="best-of-N forward timing repeats per batch size")
    p_serve.add_argument("--timeline", default=None, metavar="JSON",
                         help="write the full request/batch timeline")
    p_serve.set_defaults(func=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway",
        help="live asyncio serving gateway (real HTTP on localhost) and its "
             "seeded load client",
    )
    gateway_sub = p_gateway.add_subparsers(dest="gateway_command", required=True)

    p_gserve = gateway_sub.add_parser(
        "serve",
        help="run the HTTP gateway: same batcher + admission control as the "
             "simulator, against real inference",
    )
    common(p_gserve, models=SERVE_MODELS)
    p_gserve.add_argument("--variant", choices=("full", "factorized"), default="full")
    p_gserve.add_argument("--host", default="127.0.0.1")
    p_gserve.add_argument("--port", type=int, default=8123,
                          help="listen port (0 picks a free one)")
    p_gserve.add_argument("--slo-ms", type=float, default=150.0,
                          help="per-request latency SLO in milliseconds")
    p_gserve.add_argument("--max-batch", type=int, default=16,
                          help="dynamic batcher max_batch_size")
    p_gserve.add_argument("--max-wait-ms", type=float, default=10.0,
                          help="dynamic batcher deadline flush")
    p_gserve.add_argument("--replicas", type=int, default=1,
                          help="concurrent batch workers")
    p_gserve.add_argument("--executor", choices=("model", "profile"), default="model",
                          help="model: real no_grad forwards off-loop; profile: "
                               "sleep a pinned latency profile (needs "
                               "--latency-profile; machine-independent)")
    p_gserve.add_argument("--checkpoint", default=None,
                          help="load model weights from a .npz checkpoint")
    p_gserve.add_argument("--latency-profile", default=None, metavar="JSON",
                          help="saved latency profile for admission estimates "
                               "(measured from the model when omitted)")
    p_gserve.add_argument("--duration", type=float, default=None,
                          help="stop after this many seconds (default: run until "
                               "SIGINT/SIGTERM)")
    p_gserve.add_argument("--ready-file", default=None, metavar="PATH",
                          help="write the bound port here once listening (for "
                               "scripted readiness checks)")
    p_gserve.add_argument("--report", default=None, metavar="JSON",
                          help="write the final serve report")
    p_gserve.set_defaults(func=cmd_gateway_serve)

    p_gload = gateway_sub.add_parser(
        "loadtest", help="replay a seeded arrival trace against a running gateway"
    )
    p_gload.add_argument("--host", default="127.0.0.1")
    p_gload.add_argument("--port", type=int, required=True)
    p_gload.add_argument("--rate", type=float, default=100.0,
                         help="mean offered load in requests/second")
    p_gload.add_argument("--duration", type=float, default=5.0,
                         help="offered-load duration in seconds")
    p_gload.add_argument("--seed", type=int, default=0,
                         help="fully determines the offered trace")
    p_gload.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")
    p_gload.add_argument("--burst-factor", type=float, default=4.0)
    p_gload.add_argument("--burst-prob", type=float, default=0.1)
    p_gload.add_argument("--window-s", type=float, default=1.0,
                         help="bursty: burst-decision window length")
    p_gload.add_argument("--rid-offset", type=int, default=0,
                         help="first request id (ids are unique per server "
                              "lifetime; offset a second run against the "
                              "same server)")
    p_gload.add_argument("--steps", type=int, default=1,
                         help=">1 requests streamed multi-step responses")
    p_gload.add_argument("--mode", choices=("open", "closed"), default="open",
                         help="open: fire at trace timestamps; closed: fixed "
                              "worker pool")
    p_gload.add_argument("--workers", type=int, default=4,
                         help="closed-loop concurrency")
    p_gload.add_argument("--timeout-s", type=float, default=30.0,
                         help="per-request client timeout")
    p_gload.add_argument("--out", default=None, metavar="JSON",
                         help="write per-request records + summary")
    p_gload.set_defaults(func=cmd_gateway_loadtest)

    p_cluster = sub.add_parser(
        "cluster",
        help="fleet control plane: replica placement, autoscaling, canary rollout",
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    def cluster_common(p):
        common(p, models=SERVE_MODELS)
        p.add_argument("--slo-ms", type=float, default=150.0,
                       help="per-request latency SLO in milliseconds")
        p.add_argument("--max-batch", type=int, default=16,
                       help="dynamic batcher max_batch_size")
        p.add_argument("--max-wait-ms", type=float, default=10.0,
                       help="dynamic batcher deadline flush")
        p.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")
        p.add_argument("--window", type=float, default=10.0,
                       help="control-loop evaluation window in modeled seconds")

    p_place = cluster_sub.add_parser(
        "place", help="bin-pack replica fleets onto hosts, full vs factorized"
    )
    common(p_place, models=SERVE_MODELS)
    p_place.add_argument("--replicas", type=int, default=6,
                         help="replica count packed for each variant")
    p_place.add_argument("--host-mem-mb", type=float, default=12.0,
                         help="host memory budget in MB")
    p_place.add_argument("--host-rps", type=float, default=2000.0,
                         help="host compute budget in requests/second")
    p_place.add_argument("--host-cost", type=float, default=1.0,
                         help="relative cost of one host")
    p_place.add_argument("--overhead-mb", type=float, default=0.0,
                         help="per-replica runtime memory overhead in MB")
    p_place.add_argument("--placement", choices=("ffd", "best_fit", "spread"),
                         default="ffd")
    p_place.add_argument("--max-hosts", type=int, default=None,
                         help="fleet size cap (excess replicas are rejected)")
    p_place.add_argument("--profile-full", default=None, metavar="JSON",
                         help="saved latency profile for the full variant")
    p_place.add_argument("--profile-factorized", default=None, metavar="JSON",
                         help="saved latency profile for the factorized variant")
    p_place.add_argument("--out", default=None, metavar="JSON",
                         help="write the full placement result")
    p_place.set_defaults(func=cmd_cluster_place)

    p_scale = cluster_sub.add_parser(
        "autoscale", help="step a seeded load scenario through the control loop"
    )
    cluster_common(p_scale)
    p_scale.add_argument("--variant", choices=("full", "factorized"),
                         default="factorized")
    p_scale.add_argument("--phases", default="250x60,450x60,250x60",
                         metavar="RATExDUR,...",
                         help="offered-load schedule, e.g. 250x60,450x60")
    p_scale.add_argument("--policy", choices=("shed_rate", "target_utilization"),
                         default="shed_rate")
    p_scale.add_argument("--target", type=float, default=None,
                         help="policy target (shed rate or utilization)")
    p_scale.add_argument("--stable-windows", type=int, default=None,
                         help="calm windows required before scale-down")
    p_scale.add_argument("--initial-replicas", type=int, default=1)
    p_scale.add_argument("--min-replicas", type=int, default=1)
    p_scale.add_argument("--max-replicas", type=int, default=8)
    p_scale.add_argument("--cooldown", type=int, default=1,
                         help="windows to hold after a scale event")
    p_scale.add_argument("--host-mem-mb", type=float, default=None,
                         help="also pack the final fleet onto hosts of this size")
    p_scale.add_argument("--host-rps", type=float, default=2000.0)
    p_scale.add_argument("--latency-profile", default=None, metavar="JSON",
                         help="replay a saved latency profile instead of measuring")
    p_scale.add_argument("--timeline", default=None, metavar="JSON",
                         help="write the windowed timeline + scale events")
    p_scale.set_defaults(func=cmd_cluster_autoscale)

    p_canary = cluster_sub.add_parser(
        "canary", help="staged traffic shift full -> factorized, gated on shed delta"
    )
    cluster_common(p_canary)
    p_canary.add_argument("--phases", default="400x120", metavar="RATExDUR,...")
    p_canary.add_argument("--steps", default="0.05,0.25,0.5,1.0",
                          help="canary traffic fractions, comma-separated")
    p_canary.add_argument("--windows-per-step", type=int, default=3)
    p_canary.add_argument("--tolerance", type=float, default=0.01,
                          help="max allowed canary-minus-baseline shed delta")
    p_canary.add_argument("--profile-full", default=None, metavar="JSON")
    p_canary.add_argument("--profile-factorized", default=None, metavar="JSON")
    p_canary.add_argument("--allow-rollback", action="store_true",
                          help="exit 0 even when the rollout rolls back")
    p_canary.set_defaults(func=cmd_cluster_canary)

    p_lifecycle = sub.add_parser(
        "lifecycle",
        help="train -> factorize -> deploy pipeline: online re-factorization, "
             "checkpoint promotion, canary deployment",
    )
    lifecycle_sub = p_lifecycle.add_subparsers(dest="lifecycle_command", required=True)

    p_lrun = lifecycle_sub.add_parser(
        "run",
        help="seeded pipeline: warm-up with spectrum monitoring, per-layer "
             "factorization, low-rank fine-tune with online re-factorization",
    )
    common(p_lrun)
    p_lrun.add_argument("--samples", type=int, default=96,
                        help="synthetic training examples")
    p_lrun.add_argument("--val-samples", type=int, default=32)
    p_lrun.add_argument("--batch-size", type=int, default=32)
    p_lrun.add_argument("--lr", type=float, default=0.05)
    p_lrun.add_argument("--momentum", type=float, default=0.9)
    p_lrun.add_argument("--warmup-epochs", type=int, default=2,
                        help="full-rank epochs before factorization")
    p_lrun.add_argument("--epochs", type=int, default=4,
                        help="total epochs (warm-up + low-rank fine-tune)")
    p_lrun.add_argument("--recheck-every", type=int, default=1,
                        help="low-rank-phase spectra recheck cadence in epochs")
    p_lrun.add_argument("--energy-threshold", type=float, default=0.9,
                        help="retained spectral energy targeted per layer")
    p_lrun.add_argument("--min-rank", type=int, default=1)
    p_lrun.add_argument("--max-ratio", type=float, default=1.0,
                        help="per-layer rank cap as a fraction of full rank")
    p_lrun.add_argument("--hysteresis", type=int, default=2,
                        help="rank drift tolerated before re-factorizing")
    p_lrun.add_argument("--workers", type=int, default=1,
                        help=">1 trains under simulated DDP with full-resync "
                             "accounting on every re-factorization")
    p_lrun.add_argument("--checkpoint", default=None, metavar="NPZ",
                        help="save the trained hybrid + lineage metadata here")
    p_lrun.add_argument("--out", default=None, metavar="JSON",
                        help="write the run record (summary + lineage) for "
                             "`lifecycle promote`")
    p_lrun.add_argument("--registry-dir", default=None, metavar="DIR",
                        help="also promote the run into this registry")
    p_lrun.add_argument("--name", default=None,
                        help="registry name for --registry-dir (default: model)")
    p_lrun.set_defaults(func=cmd_lifecycle_run)

    p_lpromote = lifecycle_sub.add_parser(
        "promote",
        help="version a run's checkpoint into the promotion registry with lineage",
    )
    p_lpromote.add_argument("--run", required=True, metavar="JSON",
                            help="run record written by `lifecycle run --out`")
    p_lpromote.add_argument("--registry-dir", required=True, metavar="DIR")
    p_lpromote.add_argument("--checkpoint", default=None, metavar="NPZ",
                            help="override the checkpoint path in the run record")
    p_lpromote.add_argument("--name", default=None,
                            help="registry name (default: the lineage's model)")
    p_lpromote.set_defaults(func=cmd_lifecycle_promote)

    p_ldeploy = lifecycle_sub.add_parser(
        "deploy",
        help="stage a promoted checkpoint through the cluster canary "
             "(full -> factorized hot-swap with rollback)",
    )
    p_ldeploy.add_argument("--registry-dir", required=True, metavar="DIR")
    p_ldeploy.add_argument("--name", required=True,
                           help="promoted checkpoint name in the registry")
    p_ldeploy.add_argument("--version", type=int, default=None,
                           help="checkpoint version (default: latest)")
    p_ldeploy.add_argument("--phases", default="220x120", metavar="RATExDUR,...")
    p_ldeploy.add_argument("--window", type=float, default=10.0,
                           help="canary evaluation window in modeled seconds")
    p_ldeploy.add_argument("--seed", type=int, default=0)
    p_ldeploy.add_argument("--steps", default="0.05,0.25,0.5,1.0",
                           help="canary traffic fractions, comma-separated")
    p_ldeploy.add_argument("--windows-per-step", type=int, default=3)
    p_ldeploy.add_argument("--tolerance", type=float, default=0.01,
                           help="max allowed canary-minus-baseline shed delta")
    p_ldeploy.add_argument("--slo-ms", type=float, default=150.0)
    p_ldeploy.add_argument("--max-batch", type=int, default=16)
    p_ldeploy.add_argument("--max-wait-ms", type=float, default=10.0)
    p_ldeploy.add_argument("--degrade-factor", type=float, default=1.0,
                           help="scale canary latencies to inject a regression "
                                "(exercises the rollback path)")
    p_ldeploy.add_argument("--profile-full", default=None, metavar="JSON",
                           help="baseline latency profile (default: pinned)")
    p_ldeploy.add_argument("--profile-factorized", default=None, metavar="JSON",
                           help="canary latency profile (default: pinned)")
    p_ldeploy.add_argument("--allow-rollback", action="store_true",
                           help="exit 0 even when the rollout rolls back")
    p_ldeploy.add_argument("--out", default=None, metavar="JSON",
                           help="write the deployment report")
    p_ldeploy.add_argument("--gateway", action="store_true",
                           help="after a promoted verdict, boot the HTTP gateway "
                                "on the promoted checkpoint")
    p_ldeploy.add_argument("--host", default="127.0.0.1")
    p_ldeploy.add_argument("--port", type=int, default=8123,
                           help="gateway listen port (0 picks a free one)")
    p_ldeploy.add_argument("--replicas", type=int, default=1)
    p_ldeploy.add_argument("--duration", type=float, default=None,
                           help="gateway: stop after this many seconds")
    p_ldeploy.add_argument("--ready-file", default=None, metavar="PATH")
    p_ldeploy.set_defaults(func=cmd_lifecycle_deploy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None):
        tensor_backend.set_backend(args.backend)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
