"""Model lifecycle: online re-factorization and train→factorize→deploy.

The integration layer over the rest of the stack — one seeded,
digest-verified loop from full-rank warm-up training to a canary-gated
production hot-swap:

* :mod:`.monitor` — :class:`SpectrumMonitor`: counter-keyed per-layer
  singular-value snapshots during :class:`repro.core.Trainer` /
  :class:`repro.distributed.DistributedTrainer` runs.
* :mod:`.scheduler` — :class:`RankScheduler`: per-layer energy-rank
  proposals with a hysteresis band; triggers re-factorization with
  AB-Training-style full resync.
* :mod:`.pipeline` — :func:`run_lifecycle`: the end-to-end training
  pipeline, a pure function of ``(seed, config)`` with a timeline digest.
* :mod:`.registry` — :class:`PromotionRegistry`: versioned factorized
  checkpoints with lineage metadata, materializable into
  :class:`repro.serve.ModelRegistry` variants.
* :mod:`.deploy` — :func:`run_deployment`: staged full→factorized canary
  hot-swap through :func:`repro.cluster.run_canary`, with rollback.

CLI: ``repro lifecycle run / promote / deploy``.  Gated by
``benchmarks/test_lifecycle.py`` → ``BENCH_lifecycle.json``.
"""

from .errors import CorruptCheckpointError, LifecycleConfigError, LifecycleError, PromotionError
from .monitor import SpectrumMonitor
from .scheduler import RankPolicy, RankScheduler
from .pipeline import LifecycleConfig, run_lifecycle
from .registry import PromotionRegistry
from .deploy import (
    PINNED_FACTORIZED_PROFILE,
    PINNED_FULL_PROFILE,
    DeploymentConfig,
    run_deployment,
)

__all__ = [
    "LifecycleError",
    "CorruptCheckpointError",
    "LifecycleConfigError",
    "PromotionError",
    "SpectrumMonitor",
    "RankPolicy",
    "RankScheduler",
    "LifecycleConfig",
    "run_lifecycle",
    "PromotionRegistry",
    "DeploymentConfig",
    "run_deployment",
    "PINNED_FULL_PROFILE",
    "PINNED_FACTORIZED_PROFILE",
]
