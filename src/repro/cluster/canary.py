"""Canary rollout: shift traffic full-rank → factorized, gated on shed delta.

The rollout walks a fixed schedule of traffic fractions (5% → 25% → 50%
→ 100% by default).  At each step the window's arrivals are split
between the ``baseline`` (full-rank) and ``canary`` (factorized) pools
with the scenario's seeded router, both pools serve their share through
independent simulations, and the step is judged on the *shed-rate
delta*: canary minus baseline, averaged over the step's windows.  Delta
within tolerance → advance; above it → roll back to 0% and stop.

Replica counts are sized deterministically from each pool's measured
capacity (``ceil(share · rate / capacity_rps)`` with headroom), so the
gate compares the variants at equivalent provisioning rather than
letting an under-provisioned canary fail the rollout.  Like every run
in this package, the outcome is a pure function of
``(seed, profiles, config)`` and carries a sha256 digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..serve.latency import LatencyProfile
from ..serve.simulator import BatchPolicy, ServeConfig, ServeSimulator
from ..utils import canonical_digest
from .errors import ClusterConfigError
from .scenario import ClusterScenario, route_arrivals

__all__ = ["CanaryConfig", "CanaryStepRecord", "CanaryReport", "run_canary"]

PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class CanaryConfig:
    """Rollout schedule and the promotion gate."""

    steps: tuple[float, ...] = (0.05, 0.25, 0.5, 1.0)
    windows_per_step: int = 3
    shed_delta_tolerance: float = 0.01
    slo_s: float = 0.15
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    headroom: float = 1.2  # provision ceil(headroom · share · rate / capacity)
    max_replicas: int = 64

    def __post_init__(self) -> None:
        if not self.steps:
            raise ClusterConfigError("canary needs at least one step")
        if any(not 0.0 < s <= 1.0 for s in self.steps):
            raise ClusterConfigError("canary steps must be fractions in (0, 1]")
        if list(self.steps) != sorted(self.steps):
            raise ClusterConfigError("canary steps must be increasing")
        if self.steps[-1] != 1.0:
            raise ClusterConfigError("last canary step must be 1.0 (full rollout)")
        if self.windows_per_step < 1:
            raise ClusterConfigError("windows_per_step must be >= 1")
        if self.shed_delta_tolerance < 0:
            raise ClusterConfigError("shed_delta_tolerance must be >= 0")
        if self.slo_s <= 0:
            raise ClusterConfigError("slo_s must be positive")
        if self.headroom < 1.0:
            raise ClusterConfigError("headroom must be >= 1")
        if self.max_replicas < 1:
            raise ClusterConfigError("max_replicas must be >= 1")


@dataclass(frozen=True)
class CanaryStepRecord:
    """One rollout step's judged outcome."""

    step: int
    fraction: float
    baseline_replicas: int
    canary_replicas: int
    baseline_shed: float
    canary_shed: float
    advanced: bool

    @property
    def shed_delta(self) -> float:
        return self.canary_shed - self.baseline_shed

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "fraction": self.fraction,
            "baseline_replicas": self.baseline_replicas,
            "canary_replicas": self.canary_replicas,
            "baseline_shed": round(self.baseline_shed, 6),
            "canary_shed": round(self.canary_shed, 6),
            "shed_delta": round(self.shed_delta, 6),
            "advanced": self.advanced,
        }


@dataclass
class CanaryReport:
    """The rollout's full step history and final verdict."""

    status: str  # promoted | rolled_back
    final_fraction: float
    steps: list[CanaryStepRecord]

    def digest(self) -> str:
        return canonical_digest(
            {
                "status": self.status,
                "final_fraction": self.final_fraction,
                "steps": [s.as_dict() for s in self.steps],
            }
        )

    def summary(self) -> dict:
        return {
            "status": self.status,
            "final_fraction": self.final_fraction,
            "n_steps": len(self.steps),
            "steps": [s.as_dict() for s in self.steps],
            "timeline_digest": self.digest(),
        }


def _provision(rate_rps: float, share: float, capacity: float, cfg: CanaryConfig) -> int:
    """Deterministic replica count for one pool's traffic share."""
    if share <= 0.0:
        return 0
    need = math.ceil(cfg.headroom * share * rate_rps / capacity)
    return min(max(need, 1), cfg.max_replicas)


def _pool_shed(
    profile: LatencyProfile,
    n_replicas: int,
    arrivals,
    window_span: tuple[float, float],
    cfg: CanaryConfig,
    pool: str,
) -> tuple[int, int]:
    """Run one pool for one window; returns (offered, shed)."""
    start, end = window_span
    sim = ServeSimulator(
        profile,
        ServeConfig(slo_s=cfg.slo_s, policy=cfg.batch, replicas=n_replicas),
        pool=pool,
    )
    report = sim.run(arrivals - start, duration_s=end - start)
    return report.n_requests, report.n_shed


def run_canary(
    scenario: ClusterScenario,
    baseline_profile: LatencyProfile,
    canary_profile: LatencyProfile,
    config: CanaryConfig | None = None,
) -> CanaryReport:
    """Walk the rollout schedule over the scenario's window stream.

    Each step consumes the next ``windows_per_step`` scenario windows;
    the scenario must be long enough for the full schedule
    (``len(steps) · windows_per_step`` windows).
    """
    cfg = config or CanaryConfig()
    needed = len(cfg.steps) * cfg.windows_per_step
    if scenario.n_windows < needed:
        raise ClusterConfigError(
            f"scenario has {scenario.n_windows} windows; schedule needs {needed}"
        )

    records: list[CanaryStepRecord] = []
    collect = _metrics.COLLECT
    w = 0
    with _trace.span("cluster.canary", steps=len(cfg.steps)):
        for step_i, fraction in enumerate(cfg.steps):
            base_offered = base_shed = can_offered = can_shed = 0
            rate = scenario.rate_at(w * scenario.window_s)
            n_base = _provision(rate, 1.0 - fraction, baseline_profile.capacity_rps(), cfg)
            n_can = _provision(rate, fraction, canary_profile.capacity_rps(), cfg)
            for _ in range(cfg.windows_per_step):
                arrivals = scenario.window_arrivals(w)
                span = scenario.window_bounds(w)
                if fraction >= 1.0:
                    routed = {"canary": arrivals}
                elif fraction <= 0.0:
                    routed = {"baseline": arrivals}
                else:
                    routed = route_arrivals(
                        arrivals,
                        {"baseline": 1.0 - fraction, "canary": fraction},
                        scenario.seed,
                        w,
                    )
                if "baseline" in routed and n_base:
                    o, s = _pool_shed(
                        baseline_profile, n_base, routed["baseline"], span, cfg, "baseline"
                    )
                    base_offered += o
                    base_shed += s
                if "canary" in routed and n_can:
                    o, s = _pool_shed(
                        canary_profile, n_can, routed["canary"], span, cfg, "canary"
                    )
                    can_offered += o
                    can_shed += s
                w += 1
            baseline_rate = base_shed / base_offered if base_offered else 0.0
            canary_rate = can_shed / can_offered if can_offered else 0.0
            delta = canary_rate - baseline_rate
            advanced = delta <= cfg.shed_delta_tolerance
            records.append(
                CanaryStepRecord(
                    step=step_i,
                    fraction=fraction,
                    baseline_replicas=n_base,
                    canary_replicas=n_can,
                    baseline_shed=baseline_rate,
                    canary_shed=canary_rate,
                    advanced=advanced,
                )
            )
            if collect:
                _metrics.REGISTRY.gauge("cluster.canary.fraction").set(fraction)
                _metrics.REGISTRY.gauge("cluster.canary.shed_delta").set(delta)
            if not advanced:
                if collect:
                    _metrics.REGISTRY.counter("cluster.canary.rollbacks").inc()
                return CanaryReport(
                    status=ROLLED_BACK, final_fraction=0.0, steps=records
                )
    if collect:
        _metrics.REGISTRY.counter("cluster.canary.promotions").inc()
    return CanaryReport(status=PROMOTED, final_fraction=1.0, steps=records)
