"""Flag groups shared by the ``repro`` subcommands, each declared once.

Flags that travel together are one ``add_<group>_args(parser, **defaults)``
paired with one ``<group>_from_args(args)`` returning the library object they
describe (``ServedModel``, ``ServeConfig``, ``ArrivalSpec``, ``CanaryConfig``,
``ClusterScenario``, ``LatencyProfile``, ...).  A group only one command module
needs lives there (DDP set-up: ``simulate``; gateway boot: ``gateway``; host
budget: ``cluster``).

A ``ValueError``/``OSError`` raised while *constructing* one of those
objects is the operator's flag values being refused, not a bug, so the
constructors run under :func:`config_errors`, which re-raises it as
:class:`ConfigError`; ``repro.cli.main`` is the one place that turns a
configuration error into exit code 2.

Import rule for every CLI module: what ``import repro`` loads anyway is
imported at the top; ``repro.serve``, ``repro.gateway``, ``repro.cluster``,
``repro.lifecycle`` and ``asyncio`` are imported inside the function that
needs them, so building the parser (and ``train``) never pays for them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from ..core import PufferfishTrainer
from ..data import DataLoader, make_cifar_like
from ..optim import LAMB, SGD, Adam
from ..tensor import backend as tensor_backend

MODELS = ("mlp", "vgg11", "vgg19", "resnet18", "resnet50", "wideresnet50")
# The serving registry also covers the sequence zoo (non-image InputSpecs).
SERVE_MODELS = MODELS + ("lstm", "transformer")
OPTIMIZERS = ("sgd", "adam", "lamb")
# Per-optimizer CLI default learning rate (SGD matches the CIFAR recipe,
# Adam/LAMB the transformer translation task).
_OPT_DEFAULT_LR = {"sgd": 0.05, "adam": 2e-3, "lamb": 2e-3}


class ConfigError(Exception):
    """Flag values a command cannot run with (``main`` prints it, exits 2)."""


@contextmanager
def config_errors():
    """Scope of a ``*_from_args`` constructor: refusals become :class:`ConfigError`."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise ConfigError(e) from e


def require_at_least_one(args, *dests: str) -> None:
    """Counts (samples, batch size, nodes, ...) are checked where consumed."""
    for dest in dests:
        if getattr(args, dest) < 1:
            raise ConfigError(f"--{dest.replace('_', '-')} must be >= 1")


def write_json(path, payload, what: str) -> None:
    """Every ``--out``-style dump: indented, key-sorted so reruns diff clean."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"{what} written to {path}")


def add_backend_arg(p) -> None:
    p.add_argument("--backend", choices=tensor_backend.available(), default=None,
                   help="tensor op backend (default: $REPRO_BACKEND or numpy)")


def add_model_args(p, models=MODELS, variant=None, checkpoint=False) -> None:
    """``variant``: also declare ``--variant`` with that default (serving
    commands); ``checkpoint``: and ``--checkpoint`` to serve trained weights."""
    p.add_argument("--model", choices=models, default="resnet18")
    p.add_argument("--width", type=float, default=0.25,
                   help="width multiplier (1.0 = paper architecture)")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--rank-ratio", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    add_backend_arg(p)
    if variant:
        p.add_argument("--variant", choices=("full", "factorized"), default=variant)
    if checkpoint:
        p.add_argument("--checkpoint", default=None,
                       help="load model weights from a .npz checkpoint")


def model_from_args(args):
    """The zoo model and its hybrid config, from the serving registry's table so
    every command builds what ``serve`` serves (-> ``Module``, ``FactorizationConfig``)."""
    from ..serve.registry import build_model, hybrid_config_for

    model = build_model(args.model, args.classes, args.width)
    return model, hybrid_config_for(args.model, model, args.rank_ratio)


def served_from_args(args, variant=None, checkpoint=None):
    """One ready-to-serve variant of that model, ``--variant`` unless the
    command compares both (-> ``ServedModel``)."""
    from ..serve import default_registry

    with config_errors():
        return default_registry().materialize(
            args.model,
            variant or args.variant,
            num_classes=args.classes,
            width=args.width,
            rank_ratio=args.rank_ratio,
            seed=args.seed,
            checkpoint=checkpoint,
        )


def add_epochs_args(p, *, epochs: int, warmup_epochs: int) -> None:
    p.add_argument("--epochs", type=int, default=epochs,
                   help="total epochs (warm-up + low-rank fine-tune)")
    p.add_argument("--warmup-epochs", type=int, default=warmup_epochs,
                   help="full-rank epochs before factorization")


def pufferfish_from_args(args, model, config, **kwargs):
    """Algorithm 1 over ``--epochs/--warmup-epochs`` (-> ``PufferfishTrainer``)."""
    with config_errors():
        return PufferfishTrainer(model, config, warmup_epochs=args.warmup_epochs,
                                 total_epochs=args.epochs, **kwargs)


def add_loader_args(p, *, samples: int, batch_size: int) -> None:
    p.add_argument("--samples", type=int, default=samples, help="synthetic training examples")
    p.add_argument("--batch-size", type=int, default=batch_size)


def cifar_loaders_from_args(args, noise: float = 0.2):
    """Seeded CIFAR-like 80/20 split (-> train and validation ``DataLoader``)."""
    require_at_least_one(args, "samples", "batch_size")
    ds = make_cifar_like(n=args.samples, num_classes=args.classes, noise=noise,
                         rng=np.random.default_rng(args.seed))
    tr, va = ds.split(int(0.8 * args.samples))
    return (DataLoader(tr.images, tr.labels, args.batch_size, shuffle=True),
            DataLoader(va.images, va.labels, 2 * args.batch_size))


def add_optimizer_args(p, *, optimizer, optimizer_help: str) -> None:
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=optimizer, help=optimizer_help)
    p.add_argument("--lr", type=float, default=None,
                   help="default: 0.05 for sgd, 2e-3 for adam/lamb")


def optimizer_factory_from_args(args, default: str = "sgd", weight_decay: float = 1e-4):
    """``params -> optimizer`` for ``--optimizer/--lr``; ``weight_decay`` is
    the SGD recipe's, Adam/LAMB keep theirs."""
    name = args.optimizer or default
    lr = args.lr if args.lr is not None else _OPT_DEFAULT_LR[name]
    cls = {"sgd": SGD, "adam": Adam, "lamb": LAMB}[name]
    recipe = {"momentum": 0.9, "weight_decay": weight_decay} if name == "sgd" else {}
    return lambda ps: cls(ps, lr=lr, **recipe)


def add_policy_args(p) -> None:
    p.add_argument("--slo-ms", type=float, default=150.0,
                   help="per-request latency SLO in milliseconds")
    p.add_argument("--max-batch", type=int, default=16, help="dynamic batcher max_batch_size")
    p.add_argument("--max-wait-ms", type=float, default=10.0,
                   help="dynamic batcher deadline flush (oldest request's "
                        "max queueing wait)")


def policy_from_args(args):
    """``--max-batch/--max-wait-ms`` (-> ``BatchPolicy``)."""
    from ..serve import BatchPolicy

    with config_errors():
        return BatchPolicy(args.max_batch, args.max_wait_ms / 1e3)


def serve_config_from_args(args):
    """Policy group plus the command's own ``--replicas`` (-> ``ServeConfig``)."""
    from ..serve import ServeConfig

    with config_errors():
        return ServeConfig(slo_s=args.slo_ms / 1e3, policy=policy_from_args(args),
                           replicas=args.replicas)


def add_arrival_process_arg(p) -> None:
    p.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")


def add_arrival_args(p, *, duration: float) -> None:
    p.add_argument("--rate", type=float, default=100.0, help="mean offered load in requests/second")
    p.add_argument("--duration", type=float, default=duration,
                   help="offered-load duration in (modeled) seconds")
    add_arrival_process_arg(p)
    p.add_argument("--burst-factor", type=float, default=4.0,
                   help="bursty: in-burst rate multiplier")
    p.add_argument("--burst-prob", type=float, default=0.1,
                   help="bursty: probability a 1s window is a burst")


def arrival_from_args(args, **extra):
    """The seeded offered load (-> ``ArrivalSpec``)."""
    from ..serve import ArrivalSpec

    with config_errors():
        return ArrivalSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            process=args.arrival,
            seed=args.seed,
            burst_factor=args.burst_factor,
            burst_prob=args.burst_prob,
            **extra,
        )


def add_latency_profile_arg(p, help=None) -> None:
    p.add_argument("--latency-profile", default=None, metavar="JSON",
                   help=help or "replay a saved latency profile instead of measuring "
                                "(makes the whole run machine-independent)")


def add_profile_pair_args(p) -> None:
    p.add_argument("--profile-full", default=None, metavar="JSON",
                   help="saved latency profile for the full variant")
    p.add_argument("--profile-factorized", default=None, metavar="JSON",
                   help="saved latency profile for the factorized variant")


def load_or_measure_profile(path, served=None, repeats: int = 3, **meta):
    """Load a saved latency profile, or measure one from the live model;
    ``None`` when there is neither a path nor a model, for callers with a
    pinned fallback (-> ``LatencyProfile``)."""
    from ..serve import LatencyProfile, measure_latency_profile

    if path:
        with config_errors():
            return LatencyProfile.load(path)
    if served is None:
        return None
    return measure_latency_profile(
        served.model,
        served.input_spec,
        repeats=repeats,
        meta={"model": served.name, "variant": served.variant, **meta},
    )


def add_scenario_args(p, *, phases: str, arrival: bool = True) -> None:
    p.add_argument("--phases", default=phases, metavar="RATExDUR,...",
                   help="offered-load schedule, e.g. 250x60,450x60")
    p.add_argument("--window", type=float, default=10.0,
                   help="control-loop evaluation window in modeled seconds")
    if arrival:
        add_arrival_process_arg(p)


def scenario_from_args(args):
    """``--phases/--window/--arrival/--seed`` (-> ``ClusterScenario``)."""
    from ..cluster import ClusterScenario, parse_phases

    return ClusterScenario(parse_phases(args.phases), window_s=args.window,
                           process=args.arrival, seed=args.seed)


def add_canary_args(p) -> None:
    p.add_argument("--steps", default="0.05,0.25,0.5,1.0",
                   help="canary traffic fractions, comma-separated")
    p.add_argument("--windows-per-step", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=0.01,
                   help="max allowed canary-minus-baseline shed delta")
    p.add_argument("--allow-rollback", action="store_true",
                   help="exit 0 even when the rollout rolls back")
    add_policy_args(p)
    add_profile_pair_args(p)


def canary_from_args(args):
    """The gated rollout schedule over the policy group (-> ``CanaryConfig``)."""
    from ..cluster import CanaryConfig

    try:
        steps = tuple(float(x) for x in args.steps.split(","))
    except ValueError:
        raise ConfigError(
            f"--steps must be comma-separated fractions, got {args.steps!r}"
        ) from None
    return CanaryConfig(
        steps=steps,
        windows_per_step=args.windows_per_step,
        shed_delta_tolerance=args.tolerance,
        slo_s=args.slo_ms / 1e3,
        batch=policy_from_args(args),
    )


def print_canary(steps: list[dict], status: str, final_fraction: float) -> None:
    """The step table + verdict of a canary walk (``StepRecord.as_dict`` rows)."""
    for rec in steps:
        verdict = "advance" if rec["advanced"] else "ROLLBACK"
        print(f"  step {rec['step']}: {rec['fraction']:>5.0%} canary | "
              f"baseline shed {rec['baseline_shed']:.2%} ({rec['baseline_replicas']} rep) | "
              f"canary shed {rec['canary_shed']:.2%} ({rec['canary_replicas']} rep) | "
              f"delta {rec['shed_delta']:+.2%} -> {verdict}")
    print(f"status: {status} (final fraction {final_fraction:.0%})")
