"""The train → factorize → deploy pipeline, seeded and digest-verified.

One :func:`run_lifecycle` call is the ROADMAP's "train it, shrink it,
ship it, scale it" loop up to the shipping boundary:

1. **Warm-up** — full-rank training through ``fit`` of a single-node
   :class:`repro.core.Trainer` or, with ``workers > 1``, its simulated-DDP
   subclass :class:`repro.distributed.DistributedTrainer`, with a
   :class:`~.monitor.SpectrumMonitor` snapshotting per-layer spectra
   every epoch.  The :class:`~.scheduler.RankScheduler` re-targets its
   per-layer rank map from each snapshot's energy-rank curve; during
   warm-up a drift decision only *retargets* (the model is still
   full-rank, so no SVD is paid yet).
2. **Factorize** — at the warm-up boundary the scheduler's current map is
   applied through :func:`repro.core.build_hybrid` as ``rank_overrides``
   on the model's paper config: per-layer allocator-chosen ranks instead
   of the global 0.25 ratio.
3. **Fine-tune with online re-factorization** — low-rank training
   continues; at every ``recheck_every`` epochs the monitor measures the
   *effective* (materialized) weights.  Truncation plus SGD concentrate
   spectral energy, so measured energy ranks can fall well below the
   deployed ranks; when the drift exceeds the hysteresis band the model
   is re-factorized (materialize → truncated SVD at the new map) and —
   in DDP mode — a full AB-Training-style resync broadcast is charged so
   every worker adopts bit-identical factors.

Everything recorded (spectra digests, rank maps, decisions, loss curves,
modeled resync costs) is a pure function of ``(seed, config)``; the
end-to-end ``timeline_digest`` proves it and is exact-gated in
``BENCH_lifecycle.json``.  Wall-clock quantities (epoch seconds, measured
compute) are deliberately excluded from the digest.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from ..core import Trainer, build_hybrid, eligible_paths
from ..data.loader import DataLoader, shard_dataset
from ..data.synthetic import make_cifar_like
from ..distributed import ClusterSpec, DistributedTrainer
from ..distributed.cost_model import broadcast_cost
from ..metrics import measure_macs
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..optim import SGD
from ..serve.registry import IMAGE_MODELS, build_model, hybrid_config_for, input_spec_for
from ..utils import canonical_digest, derive_seed, set_seed
from .errors import LifecycleConfigError
from .monitor import SpectrumMonitor
from .scheduler import RankPolicy, RankScheduler

__all__ = ["LifecycleConfig", "LifecycleRun", "run_lifecycle"]

# Kind ids for repro.utils.derive_seed (repro.cluster.scenario owns 11-12);
# renumbering one changes every seeded lifecycle run.
_KIND_DATA = 21
_KIND_LOADER = 22


def _r6(x: float) -> float:
    return round(float(x), 6)


@dataclass(frozen=True)
class LifecycleConfig:
    """Everything that determines a lifecycle run (with the seed)."""

    model: str = "vgg11"
    num_classes: int = 4
    width: float = 0.25
    seed: int = 0
    train_samples: int = 96
    val_samples: int = 32
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    warmup_epochs: int = 2
    total_epochs: int = 4
    recheck_every: int = 1  # low-rank-phase snapshot cadence (epochs)
    rank_ratio: float = 0.25  # the paper's global baseline (comparison map)
    policy: RankPolicy = field(default_factory=RankPolicy)
    workers: int = 1  # >1: simulated DDP with full-resync accounting

    def __post_init__(self) -> None:
        if self.model not in IMAGE_MODELS:
            raise LifecycleConfigError(
                f"lifecycle training supports the image zoo {IMAGE_MODELS}, "
                f"got {self.model!r}"
            )
        if self.warmup_epochs < 1:
            raise LifecycleConfigError("warmup_epochs must be >= 1")
        if self.total_epochs < self.warmup_epochs:
            raise LifecycleConfigError("total_epochs must be >= warmup_epochs")
        if self.recheck_every < 1:
            raise LifecycleConfigError("recheck_every must be >= 1")
        if self.workers < 1:
            raise LifecycleConfigError("workers must be >= 1")
        if self.batch_size < 1 or self.train_samples < 1 or self.val_samples < 1:
            raise LifecycleConfigError("samples and batch_size must be positive")
        if self.train_samples // self.workers < self.batch_size:
            raise LifecycleConfigError(
                "each worker shard needs at least one full batch: "
                f"{self.train_samples} samples / {self.workers} workers "
                f"< batch_size {self.batch_size}"
            )

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "num_classes": self.num_classes,
            "width": self.width,
            "seed": self.seed,
            "train_samples": self.train_samples,
            "val_samples": self.val_samples,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "momentum": self.momentum,
            "warmup_epochs": self.warmup_epochs,
            "total_epochs": self.total_epochs,
            "recheck_every": self.recheck_every,
            "rank_ratio": self.rank_ratio,
            "policy": {
                "energy_threshold": self.policy.energy_threshold,
                "min_rank": self.policy.min_rank,
                "max_ratio": self.policy.max_ratio,
                "hysteresis": self.policy.hysteresis,
            },
            "workers": self.workers,
        }

    def digest(self) -> str:
        return canonical_digest(self.as_dict())

    @property
    def run_id(self) -> str:
        """Deterministic run identity — same (seed, config) ⇒ same run."""
        return f"lc-{self.digest()[:12]}"


@dataclass
class LifecycleRun:
    """Result of one pipeline run: the model plus its verified provenance."""

    config: LifecycleConfig
    model: object  # the final trained hybrid
    snapshots: list
    decisions: list
    events: list
    rank_map: dict
    global_rank_map: dict  # what the paper's global ratio would have chosen
    params_full: int
    params_factorized: int
    macs_full: int
    macs_factorized: int
    spectra_digest: str
    history: list

    @property
    def run_id(self) -> str:
        return self.config.run_id

    @property
    def param_reduction(self) -> float:
        return self.params_full / max(self.params_factorized, 1)

    @property
    def mac_reduction(self) -> float:
        return self.macs_full / max(self.macs_factorized, 1)

    def rank_map_digest(self) -> str:
        return canonical_digest(self.rank_map)

    def n_layers_differ_from_global(self) -> int:
        """Layers whose allocated rank differs from the global-ratio map."""
        return sum(
            1
            for path, rank in self.rank_map.items()
            if self.global_rank_map.get(path) != rank
        )

    def n_refactorizations(self) -> int:
        """Re-factorizations paid after the initial warm-up conversion."""
        return sum(1 for e in self.events if e["event"] == "refactorize")

    def lineage(self) -> dict:
        """The provenance block stamped into promoted checkpoints."""
        return {
            "parent_run": self.run_id,
            "config_digest": self.config.digest(),
            "spectra_digest": self.spectra_digest,
            "rank_map": dict(sorted(self.rank_map.items())),
            "rank_map_digest": self.rank_map_digest(),
            "params_full": self.params_full,
            "params_factorized": self.params_factorized,
            "macs_full": self.macs_full,
            "macs_factorized": self.macs_factorized,
            "model": self.config.model,
            "num_classes": self.config.num_classes,
            "width": self.config.width,
            "seed": self.config.seed,
            "timeline_digest": self.timeline_digest(),
        }

    def _payload(self) -> dict:
        return {
            "run_id": self.run_id,
            "config": self.config.as_dict(),
            "config_digest": self.config.digest(),
            "snapshots": [s.as_dict() for s in self.snapshots],
            "decisions": [d.as_dict() for d in self.decisions],
            "events": self.events,
            "rank_map": dict(sorted(self.rank_map.items())),
            "rank_map_digest": self.rank_map_digest(),
            "global_rank_map": dict(sorted(self.global_rank_map.items())),
            "n_layers_differ_from_global": self.n_layers_differ_from_global(),
            "n_refactorizations": self.n_refactorizations(),
            "params_full": self.params_full,
            "params_factorized": self.params_factorized,
            "param_reduction": round(self.param_reduction, 4),
            "macs_full": self.macs_full,
            "macs_factorized": self.macs_factorized,
            "mac_reduction": round(self.mac_reduction, 4),
            "spectra_digest": self.spectra_digest,
            "history": self.history,
        }

    def timeline_digest(self) -> str:
        return canonical_digest(self._payload())

    def summary(self) -> dict:
        """JSON-safe run record (everything but the weights)."""
        out = self._payload()
        out["timeline_digest"] = self.timeline_digest()
        return out


def _example_batch(name: str):
    spec = input_spec_for(name)
    return spec.example_batch(1, np.random.default_rng(0))


def _loaders(cfg: LifecycleConfig, train, val):
    """The training loader — one per simulated rank when ``workers > 1`` —
    and the validation loader."""
    shards = shard_dataset(train.images, train.labels, cfg.workers)
    loaders = [
        DataLoader(
            x,
            y,
            cfg.batch_size,
            shuffle=True,
            drop_last=cfg.workers > 1,
            rng=np.random.default_rng(derive_seed(cfg.seed, _KIND_LOADER, w)),
        )
        for w, (x, y) in enumerate(shards)
    ]
    val_loader = DataLoader(val.images, val.labels, cfg.batch_size)
    return (loaders[0] if cfg.workers == 1 else loaders), val_loader


def _trainer(cfg: LifecycleConfig, model) -> Trainer:
    """A fresh trainer (and optimizer) for ``model``: one node, or the
    simulated DDP ring of ``workers`` ranks."""
    opt = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)
    if cfg.workers == 1:
        return Trainer(model, opt)
    return DistributedTrainer(model, opt, ClusterSpec(cfg.workers))


def _epoch_record(s) -> dict:
    """One epoch's history row.  One node records its train loss; under DDP
    the modeled α–β wire time and bytes (deterministic; the measured compute
    seconds are wall-clock and stay out of the digest)."""
    record = {
        "event": "epoch",
        "epoch": s.epoch,
        "phase": s.phase,
        "val_loss": _r6(s.val_loss),
        "val_metric": _r6(s.val_metric),
        "params": int(s.num_parameters),
    }
    if s.timeline is None:
        record["train_loss"] = _r6(s.train_loss)
    else:
        record["comm_seconds"] = round(s.timeline.comm, 9)
        record["bytes_per_iteration"] = int(s.timeline.bytes_per_iteration)
        record["iterations"] = int(s.timeline.iterations)
    return record


def run_lifecycle(config: LifecycleConfig) -> LifecycleRun:
    """Run the full seeded pipeline; pure function of ``(seed, config)``."""
    cfg = config
    set_seed(cfg.seed)
    data_rng = np.random.default_rng(derive_seed(cfg.seed, _KIND_DATA, 0))
    dataset = make_cifar_like(
        cfg.train_samples + cfg.val_samples, cfg.num_classes, rng=data_rng
    )
    train, val = dataset.split(cfg.train_samples)

    model = build_model(cfg.model, cfg.num_classes, cfg.width)
    base_hybrid_cfg = hybrid_config_for(cfg.model, model, cfg.rank_ratio)
    monitor = SpectrumMonitor()
    scheduler = RankScheduler(
        policy=cfg.policy, eligible=tuple(eligible_paths(model, base_hybrid_cfg))
    )
    train_loader, val_loader = _loaders(cfg, train, val)

    events: list[dict] = []
    history: list[dict] = []
    example = _example_batch(cfg.model)
    params_full = int(model.num_parameters())
    macs_full = int(measure_macs(model, *example))

    with _trace.span("lifecycle.run", model=cfg.model, seed=cfg.seed):
        # Phase 1: full-rank warm-up with per-epoch spectral retargeting.
        trainer = _trainer(cfg, model)
        with _trace.span("lifecycle.warmup", epochs=cfg.warmup_epochs):
            for epoch in range(cfg.warmup_epochs):
                trainer.fit(train_loader, val_loader, 1, epoch, "warmup")
                history.append(_epoch_record(trainer.history[-1]))
                snap = monitor.observe(model, epoch, "warmup")
                events.append({"event": "snapshot", **snap.as_dict()})
                decision = scheduler.decide(snap)
                if decision.refactorize and decision.reason != "initial":
                    events.append(
                        {
                            "event": "retarget",
                            "epoch": epoch,
                            "drifted": list(decision.drifted),
                        }
                    )

        # Phase 2: one-time truncated-SVD conversion at the scheduler's map.
        warm_model = copy.deepcopy(model)
        factor_cfg = replace(
            base_hybrid_cfg,
            rank_overrides={**base_hybrid_cfg.rank_overrides, **scheduler.current},
        )
        with _trace.span("lifecycle.factorize", epoch=cfg.warmup_epochs):
            model, report = build_hybrid(model, factor_cfg)
        events.append(
            {
                "event": "factorize",
                "epoch": cfg.warmup_epochs,
                "replaced": len(report.replaced),
                "kept": len(report.kept),
                "params_before": int(report.params_before),
                "params_after": int(report.params_after),
            }
        )
        trainer = _trainer(cfg, model)

        # Phase 3: low-rank fine-tuning with online re-factorization.
        for epoch in range(cfg.warmup_epochs, cfg.total_epochs):
            trainer.fit(train_loader, val_loader, 1, epoch, "lowrank")
            history.append(_epoch_record(trainer.history[-1]))
            recheck_idx = epoch - cfg.warmup_epochs + 1
            if recheck_idx % cfg.recheck_every != 0 or epoch == cfg.total_epochs - 1:
                continue
            snap = monitor.observe(model, epoch, "lowrank")
            events.append({"event": "snapshot", **snap.as_dict()})
            decision = scheduler.decide(snap)
            if not decision.refactorize:
                continue
            # Drift past the hysteresis band: materialize the effective
            # weights and re-factorize at the new map.  Under DDP this is
            # the AB-Training full resync — one broadcast of the fresh
            # factors keeps every worker bit-consistent.
            factor_cfg = replace(
                base_hybrid_cfg,
                rank_overrides={**base_hybrid_cfg.rank_overrides, **scheduler.current},
            )
            with _trace.span("lifecycle.refactorize", epoch=epoch):
                from ..core.materialize import materialize_hybrid

                model, report = build_hybrid(materialize_hybrid(model), factor_cfg)
            resync_bytes = int(report.params_after) * 4
            events.append(
                {
                    "event": "refactorize",
                    "epoch": epoch,
                    "drifted": list(decision.drifted),
                    "replaced": len(report.replaced),
                    "params_after": int(report.params_after),
                    "resync_bytes": resync_bytes * max(cfg.workers - 1, 0),
                    "resync_seconds": round(
                        broadcast_cost(resync_bytes, ClusterSpec(cfg.workers)), 9
                    ),
                }
            )
            trainer = _trainer(cfg, model)

        val_loss, val_metric = trainer.evaluate(val_loader)
        events.append(
            {
                "event": "final_eval",
                "epoch": cfg.total_epochs,
                "val_loss": _r6(val_loss),
                "val_metric": _r6(val_metric),
            }
        )

    # The paper's global-ratio map on the same warm-up weights, for the
    # "per-layer allocation actually chose differently" comparison.
    _, global_report = build_hybrid(warm_model, base_hybrid_cfg)
    global_rank_map = {path: int(rank) for path, rank in global_report.replaced}

    run = LifecycleRun(
        config=cfg,
        model=model,
        snapshots=list(monitor.snapshots),
        decisions=list(scheduler.decisions),
        events=events,
        rank_map={k: int(v) for k, v in (scheduler.current or {}).items()},
        global_rank_map=global_rank_map,
        params_full=params_full,
        params_factorized=int(model.num_parameters()),
        macs_full=macs_full,
        macs_factorized=int(measure_macs(model, *example)),
        spectra_digest=monitor.digest(),
        history=history,
    )
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("lifecycle.runs").inc()
        _metrics.REGISTRY.gauge("lifecycle.param_reduction").set(run.param_reduction)
        _metrics.REGISTRY.gauge("lifecycle.refactorization_count").set(
            run.n_refactorizations()
        )
    return run
