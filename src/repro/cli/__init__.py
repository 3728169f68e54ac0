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

Layout: this module is a registry.  ``COMMANDS`` maps each of the 13 leaf
commands to its ``(add_parser, run)`` pair; the pairs live in one module per
subsystem (``train``, ``simulate``, ``serve``, ``gateway``, ``cluster``,
``lifecycle``), which import their subsystem lazily, and declare their flags
through the shared groups of :mod:`repro.cli.groups` — one
``add_<group>_args`` / ``<group>_from_args`` pair per set of flags that
travels together.  Exit codes, stated once: **0** ok · **1** the run itself
failed (collective timeout, canary rollback without ``--allow-rollback``,
loadtest client errors) · **2** bad configuration — commands *raise*, and
:func:`main` alone prints ``bad <command> configuration: <reason>``.

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

from ..tensor import backend as tensor_backend
from . import cluster, gateway, lifecycle, serve, simulate, train
from .groups import ConfigError

__all__ = ["main", "build_parser", "COMMANDS"]

# {command: (add_parser, run)} in --help order; "group leaf" keys nest one level.
COMMANDS = {
    "train": (train.add_train_parser, train.run_train),
    "factorize": (train.add_factorize_parser, train.run_factorize),
    "simulate": (simulate.add_simulate_parser, simulate.run_simulate),
    "profile": (simulate.add_profile_parser, simulate.run_profile),
    "serve": (serve.add_serve_parser, serve.run_serve),
    "gateway serve": (gateway.add_serve_parser, gateway.run_serve),
    "gateway loadtest": (gateway.add_loadtest_parser, gateway.run_loadtest),
    "cluster place": (cluster.add_place_parser, cluster.run_place),
    "cluster autoscale": (cluster.add_autoscale_parser, cluster.run_autoscale),
    "cluster canary": (cluster.add_canary_parser, cluster.run_canary),
    "lifecycle run": (lifecycle.add_run_parser, lifecycle.run_run),
    "lifecycle promote": (lifecycle.add_promote_parser, lifecycle.run_promote),
    "lifecycle deploy": (lifecycle.add_deploy_parser, lifecycle.run_deploy),
}
GROUP_HELP = {
    "gateway": "live asyncio serving gateway (real HTTP on localhost) and its "
               "seeded load client",
    "cluster": "fleet control plane: replica placement, autoscaling, canary rollout",
    "lifecycle": "train -> factorize -> deploy pipeline: online re-factorization, "
                 "checkpoint promotion, canary deployment",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (add_parser, run) in COMMANDS.items():
        group = command.rpartition(" ")[0]
        if group not in subs:
            p = subs[""].add_parser(group, help=GROUP_HELP[group])
            subs[group] = p.add_subparsers(dest=f"{group}_command", required=True)
        add_parser(subs[group]).set_defaults(func=run)
    return parser


def _configuration_errors() -> tuple:
    """Every type that means "the operator's flags were refused" — imported only
    once one may have been raised: building the parser must not load their packages."""
    from ..cluster.errors import ClusterConfigError
    from ..distributed.errors import FaultSpecError
    from ..lifecycle.errors import LifecycleConfigError, PromotionError

    return (ConfigError, FaultSpecError, ClusterConfigError, LifecycleConfigError, PromotionError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        tensor_backend.set_backend(args.backend)
    try:
        return args.func(args)
    except _configuration_errors() as e:
        # The one exit-2 site.  Anything else a command raises is a bug and
        # keeps its traceback; exit 1 (the run failed) is the command's call.
        loadtest = getattr(args, "gateway_command", None) == "loadtest"
        label = "loadtest" if loadtest else args.command
        print(f"bad {label} configuration: {e}", file=sys.stderr)
        return 2
