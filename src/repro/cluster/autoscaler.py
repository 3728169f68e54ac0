"""The autoscaling control loop: windowed serving sims driving replica counts.

Each evaluation window, every pool replays its slice of the scenario's
arrivals through an independent :class:`~repro.serve.simulator.ServeSimulator`
at its *current* replica count, the policy reads the resulting
shed/utilization signals, and the loop applies the proposed delta under
min/max clamps and a cooldown.  Queue state is **not** carried across
windows — each window is a fresh steady-state sample at that replica
count, which keeps the whole run a pure function of
``(seed, profiles, config)`` and lets windows be replayed independently.

The run emits a :class:`ClusterReport` whose sha256 timeline digest is
the determinism contract: two invocations with the same inputs produce
the same digest, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..serve.latency import LatencyProfile
from ..serve.simulator import BatchPolicy, ServeConfig, ServeSimulator
from ..utils import canonical_digest
from .errors import ClusterConfigError
from .hosts import HostSpec, ReplicaSpec
from .placement import PlacementResult, pack
from .policies import ScalingPolicy, WindowStats
from .scenario import ClusterScenario, route_arrivals

__all__ = ["PoolConfig", "ScaleEvent", "WindowRecord", "ClusterReport", "ClusterAutoscaler"]


@dataclass(frozen=True)
class PoolConfig:
    """One replica pool: a model variant, its measured profile, its limits."""

    name: str
    replica: ReplicaSpec
    profile: LatencyProfile
    slo_s: float
    policy: ScalingPolicy
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    initial_replicas: int = 1
    min_replicas: int = 1
    max_replicas: int = 16
    cooldown_windows: int = 1
    traffic_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterConfigError("pool name must be non-empty")
        if self.slo_s <= 0:
            raise ClusterConfigError("slo_s must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ClusterConfigError("need 1 <= min_replicas <= max_replicas")
        if not self.min_replicas <= self.initial_replicas <= self.max_replicas:
            raise ClusterConfigError(
                "initial_replicas must lie within [min_replicas, max_replicas]"
            )
        if self.cooldown_windows < 0:
            raise ClusterConfigError("cooldown_windows must be >= 0")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise ClusterConfigError("traffic_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ScaleEvent:
    """One applied replica-count change on the window clock."""

    window: int
    pool: str
    before: int
    after: int
    reason: str  # policy name that proposed the move

    @property
    def direction(self) -> str:
        return "up" if self.after > self.before else "down"

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "pool": self.pool,
            "before": self.before,
            "after": self.after,
            "direction": self.direction,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class WindowRecord:
    """One pool's measured signals for one evaluation window."""

    window: int
    pool: str
    replicas: int
    offered: int
    completed: int
    shed_rate: float
    utilization: float
    p95_ms: float

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "pool": self.pool,
            "replicas": self.replicas,
            "offered": self.offered,
            "completed": self.completed,
            "shed_rate": round(self.shed_rate, 6),
            "utilization": round(self.utilization, 6),
            "p95_ms": round(self.p95_ms, 6),
        }


@dataclass
class ClusterReport:
    """Full control-loop output: per-window signals + applied scale events."""

    scenario_seed: int
    window_s: float
    records: list[WindowRecord]
    events: list[ScaleEvent]
    final_replicas: dict[str, int]
    placement: PlacementResult | None = None

    def pool_records(self, pool: str) -> list[WindowRecord]:
        return [r for r in self.records if r.pool == pool]

    def steady_state_shed(self, pool: str, last_n: int = 3) -> float:
        """Mean shed rate over the last ``last_n`` windows of one pool."""
        recs = self.pool_records(pool)[-last_n:]
        return sum(r.shed_rate for r in recs) / len(recs) if recs else 0.0

    def max_replicas_seen(self, pool: str) -> int:
        return max((r.replicas for r in self.pool_records(pool)), default=0)

    def oscillations(self, pool: str) -> int:
        """Count of immediate direction reversals (up then down in
        adjacent applied events, or vice versa) — hysteresis should keep
        this at zero for steady phases."""
        evs = [e for e in self.events if e.pool == pool]
        return sum(
            1
            for a, b in zip(evs, evs[1:])
            if a.direction != b.direction and b.window - a.window <= 1
        )

    def timeline(self) -> list[dict]:
        return [r.as_dict() for r in self.records]

    def digest(self) -> str:
        """Stable hash of the full windowed timeline + scale events."""
        return canonical_digest(
            {
                "seed": self.scenario_seed,
                "window_s": self.window_s,
                "records": self.timeline(),
                "events": [e.as_dict() for e in self.events],
            }
        )

    def summary(self) -> dict:
        pools = sorted(self.final_replicas)
        out = {
            "seed": self.scenario_seed,
            "window_s": self.window_s,
            "n_windows": max((r.window for r in self.records), default=-1) + 1,
            "n_scale_events": len(self.events),
            "final_replicas": dict(sorted(self.final_replicas.items())),
            "pools": {
                p: {
                    "steady_state_shed": round(self.steady_state_shed(p), 6),
                    "max_replicas": self.max_replicas_seen(p),
                    "oscillations": self.oscillations(p),
                }
                for p in pools
            },
            "timeline_digest": self.digest(),
        }
        if self.placement is not None:
            out["placement"] = {
                "policy": self.placement.policy,
                "n_hosts": self.placement.n_hosts,
                "fleet_cost": round(self.placement.fleet_cost, 6),
                "n_rejected": len(self.placement.rejected),
            }
        return out


class ClusterAutoscaler:
    """Step a seeded scenario through per-pool serving sims, scaling as it goes."""

    def __init__(
        self,
        scenario: ClusterScenario,
        pools: list[PoolConfig],
        host_spec: HostSpec | None = None,
        placement_policy: str = "ffd",
    ):
        if not pools:
            raise ClusterConfigError("autoscaler needs at least one pool")
        names = [p.name for p in pools]
        if len(set(names)) != len(names):
            raise ClusterConfigError(f"duplicate pool names: {names}")
        total = sum(p.traffic_fraction for p in pools)
        if abs(total - 1.0) > 1e-9:
            raise ClusterConfigError(
                f"pool traffic fractions must sum to 1, got {total}"
            )
        self.scenario = scenario
        self.pools = list(pools)
        self.host_spec = host_spec
        self.placement_policy = placement_policy

    def run(self) -> ClusterReport:
        sc = self.scenario
        replicas = {p.name: p.initial_replicas for p in self.pools}
        cooldown_left = {p.name: 0 for p in self.pools}
        history: dict[str, list[WindowStats]] = {p.name: [] for p in self.pools}
        records: list[WindowRecord] = []
        events: list[ScaleEvent] = []
        collect = _metrics.COLLECT
        fractions = {p.name: p.traffic_fraction for p in self.pools}

        with _trace.span("cluster.autoscale", windows=sc.n_windows, pools=len(self.pools)):
            for w in range(sc.n_windows):
                arrivals = sc.window_arrivals(w)
                start, end = sc.window_bounds(w)
                if len(self.pools) == 1:
                    routed = {self.pools[0].name: arrivals}
                else:
                    routed = route_arrivals(arrivals, fractions, sc.seed, w)
                for pool in self.pools:
                    pool_arrivals = routed[pool.name] - start
                    sim = ServeSimulator(
                        pool.profile,
                        ServeConfig(
                            slo_s=pool.slo_s,
                            policy=pool.batch,
                            replicas=replicas[pool.name],
                        ),
                        pool=pool.name,
                    )
                    report = sim.run(pool_arrivals, duration_s=end - start)
                    stats = WindowStats(
                        window=w,
                        offered=report.n_requests,
                        shed_rate=report.shed_rate,
                        utilization=report.utilization,
                        replicas=replicas[pool.name],
                    )
                    history[pool.name].append(stats)
                    records.append(
                        WindowRecord(
                            window=w,
                            pool=pool.name,
                            replicas=replicas[pool.name],
                            offered=report.n_requests,
                            completed=report.n_completed,
                            shed_rate=report.shed_rate,
                            utilization=report.utilization,
                            p95_ms=report.latency_quantile(0.95) * 1e3,
                        )
                    )
                    if collect:
                        _metrics.REGISTRY.gauge("cluster.pool.replicas").labels(
                            pool=pool.name
                        ).set(replicas[pool.name])
                        _metrics.REGISTRY.gauge("cluster.pool.shed_rate").labels(
                            pool=pool.name
                        ).set(report.shed_rate)
                    # Policy step, gated by cooldown, clamped to limits.
                    if cooldown_left[pool.name] > 0:
                        cooldown_left[pool.name] -= 1
                        continue
                    delta = pool.policy.decide(history[pool.name])
                    if delta == 0:
                        continue
                    before = replicas[pool.name]
                    after = max(pool.min_replicas, min(pool.max_replicas, before + delta))
                    if after == before:
                        continue
                    replicas[pool.name] = after
                    cooldown_left[pool.name] = pool.cooldown_windows
                    events.append(
                        ScaleEvent(
                            window=w,
                            pool=pool.name,
                            before=before,
                            after=after,
                            reason=pool.policy.name,
                        )
                    )
                    if collect:
                        _metrics.REGISTRY.counter("cluster.scale_events").labels(
                            direction="up" if after > before else "down"
                        ).inc()

        placement = None
        if self.host_spec is not None:
            fleet = [
                pool.replica
                for pool in self.pools
                for _ in range(replicas[pool.name])
            ]
            placement = pack(fleet, self.host_spec, policy=self.placement_policy)
        return ClusterReport(
            scenario_seed=sc.seed,
            window_s=sc.window_s,
            records=records,
            events=events,
            final_replicas=dict(replicas),
            placement=placement,
        )
