"""Deployment driver: staged canary hot-swap of a promoted checkpoint.

The last pipeline stage hands a promoted :class:`~.registry.CheckpointRecord`
to :func:`repro.cluster.run_canary`: live seeded load is shifted
full-rank → factorized along the canary schedule, each step judged on the
shed-rate delta, with automatic rollback to 0% when the factorized
variant degrades service.  The default latency profiles are *pinned*
measurements (VGG-19-class, the same numbers the cluster benchmark
gates), so a deployment verdict is a pure function of
``(record, scenario seed, config)`` on any machine; callers can swap in
measured or file-loaded profiles for live hardware.

An injected-regression knob (``degrade_factor``) scales the canary
profile's latencies — the rollback path is exercised deliberately in the
benchmark and the CI smoke rather than waiting for a real regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import CanaryConfig, ClusterScenario, LoadPhase, run_canary
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..serve.latency import LatencyProfile
from ..utils import canonical_digest
from .registry import CheckpointRecord

__all__ = [
    "PINNED_FULL_PROFILE",
    "PINNED_FACTORIZED_PROFILE",
    "DeploymentConfig",
    "DeploymentReport",
    "run_deployment",
]

# Pinned measured profiles (batch → seconds) so deployment verdicts are
# machine-independent; identical to the cluster benchmark's pinned pair.
_PROFILE_BATCHES = (1, 2, 4, 8, 16, 32)
PINNED_FULL_PROFILE = LatencyProfile(
    _PROFILE_BATCHES,
    (0.0047, 0.0074, 0.0124, 0.0212, 0.0392, 0.0769),
    meta=(("pinned", "true"), ("variant", "full")),
)
PINNED_FACTORIZED_PROFILE = LatencyProfile(
    _PROFILE_BATCHES,
    (0.0043, 0.0064, 0.0119, 0.0205, 0.0371, 0.0721),
    meta=(("pinned", "true"), ("variant", "factorized")),
)


def _default_phases() -> tuple[LoadPhase, ...]:
    return (LoadPhase(rate_rps=220.0, duration_s=120.0),)


@dataclass(frozen=True)
class DeploymentConfig:
    """Scenario + rollout schedule for one canary deployment."""

    phases: tuple = field(default_factory=_default_phases)
    window_s: float = 10.0
    seed: int = 0
    canary: CanaryConfig = field(default_factory=CanaryConfig)
    # Injected regression: multiply every canary latency by this factor
    # (1.0 = honest deploy).  Used to demonstrate/test rollback.
    degrade_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.degrade_factor <= 0:
            raise ValueError("degrade_factor must be positive")

    def scenario(self) -> ClusterScenario:
        return ClusterScenario(
            phases=tuple(self.phases), window_s=self.window_s, seed=self.seed
        )


@dataclass
class DeploymentReport:
    """Canary verdict plus the checkpoint it judged."""

    record: CheckpointRecord
    status: str  # promoted | rolled_back
    final_fraction: float
    steps: list
    canary_digest: str
    degrade_factor: float

    @property
    def promoted(self) -> bool:
        return self.status == "promoted"

    def digest(self) -> str:
        return canonical_digest(
            {
                "name": self.record.name,
                "version": self.record.version,
                "rank_map_digest": self.record.lineage.get("rank_map_digest"),
                "parent_run": self.record.lineage.get("parent_run"),
                "status": self.status,
                "final_fraction": self.final_fraction,
                "canary_digest": self.canary_digest,
                "degrade_factor": self.degrade_factor,
            }
        )

    def summary(self) -> dict:
        return {
            "checkpoint": {
                "name": self.record.name,
                "version": self.record.version,
                "parent_run": self.record.lineage.get("parent_run"),
                "rank_map_digest": self.record.lineage.get("rank_map_digest"),
            },
            "status": self.status,
            "final_fraction": self.final_fraction,
            "degrade_factor": self.degrade_factor,
            "steps": list(self.steps),
            "canary_digest": self.canary_digest,
            "deploy_digest": self.digest(),
        }


def run_deployment(
    record: CheckpointRecord,
    config: DeploymentConfig | None = None,
    baseline_profile: LatencyProfile | None = None,
    canary_profile: LatencyProfile | None = None,
) -> DeploymentReport:
    """Stage a promoted checkpoint through the cluster canary."""
    cfg = config or DeploymentConfig()
    baseline = baseline_profile or PINNED_FULL_PROFILE
    canary = canary_profile or PINNED_FACTORIZED_PROFILE
    if cfg.degrade_factor != 1.0:
        meta = dict(canary.meta)
        meta["degrade_factor"] = str(cfg.degrade_factor)
        canary = LatencyProfile(
            canary.batch_sizes,
            tuple(cfg.degrade_factor * t for t in canary.latency_s),
            meta=tuple(sorted(meta.items())),
        )
    with _trace.span(
        "lifecycle.deploy", name=record.name, version=record.version
    ):
        report = run_canary(cfg.scenario(), baseline, canary, cfg.canary)
    out = DeploymentReport(
        record=record,
        status=report.status,
        final_fraction=report.final_fraction,
        steps=[s.as_dict() for s in report.steps],
        canary_digest=report.digest(),
        degrade_factor=cfg.degrade_factor,
    )
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("lifecycle.deployments").labels(
            status=out.status
        ).inc()
        _metrics.REGISTRY.gauge("lifecycle.deploy_fraction").set(out.final_fraction)
    return out
