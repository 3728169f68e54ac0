"""The fleet's physical model: hosts with budgets, replicas with costs.

A host offers two budgets — resident memory and compute (peak service
rate) — and a replica consumes a slice of each.  The costs are not free
parameters: a replica's memory footprint comes from the serving
registry's *exact* parameter accounting
(:meth:`~repro.serve.registry.ServedModel.memory_bytes`) and its compute
capacity from the measured latency profile's
:meth:`~repro.serve.latency.LatencyProfile.capacity_rps`.  That is what
makes the factorized-vs-full host-count comparison a measured quantity
rather than a knob: Pufferfish's permanently smaller models pack more
replicas per host, so the same traffic needs fewer hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ClusterConfigError

__all__ = ["HostSpec", "ReplicaSpec", "Host", "replica_spec_for"]


@dataclass(frozen=True)
class HostSpec:
    """One host type's budgets (the fleet is homogeneous by design —
    heterogeneous pools would be modeled as separate fleets)."""

    mem_bytes: int
    compute_rps: float
    cost: float = 1.0  # relative cost of one host; fleet cost sums these

    def __post_init__(self) -> None:
        if self.mem_bytes <= 0:
            raise ClusterConfigError("host mem_bytes must be positive")
        if self.compute_rps <= 0:
            raise ClusterConfigError("host compute_rps must be positive")
        if self.cost <= 0:
            raise ClusterConfigError("host cost must be positive")


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica's resource demand, derived from measured model costs."""

    model: str
    variant: str
    mem_bytes: int
    capacity_rps: float

    def __post_init__(self) -> None:
        if self.mem_bytes <= 0:
            raise ClusterConfigError("replica mem_bytes must be positive")
        if self.capacity_rps <= 0:
            raise ClusterConfigError("replica capacity_rps must be positive")

    @property
    def key(self) -> str:
        return f"{self.model}:{self.variant}"


def replica_spec_for(
    served,
    profile,
    *,
    overhead_bytes: int = 0,
) -> ReplicaSpec:
    """Build a :class:`ReplicaSpec` from a materialized model + profile.

    ``overhead_bytes`` accounts for per-replica activation/runtime memory
    beyond the weights; it defaults to zero so the packed numbers stay a
    pure function of the registry's parameter counts.
    """
    return ReplicaSpec(
        model=served.name,
        variant=served.variant,
        mem_bytes=served.memory_bytes() + overhead_bytes,
        capacity_rps=profile.capacity_rps(),
    )


@dataclass
class Host:
    """A host being filled by the placement engine."""

    index: int
    spec: HostSpec
    replicas: list[ReplicaSpec] = field(default_factory=list)
    mem_used: int = 0
    rps_used: float = 0.0

    def fits(self, replica: ReplicaSpec) -> bool:
        return (
            self.mem_used + replica.mem_bytes <= self.spec.mem_bytes
            and self.rps_used + replica.capacity_rps <= self.spec.compute_rps
        )

    def place(self, replica: ReplicaSpec) -> None:
        if not self.fits(replica):
            raise ValueError(f"replica {replica.key} does not fit host {self.index}")
        self.replicas.append(replica)
        self.mem_used += replica.mem_bytes
        self.rps_used += replica.capacity_rps

    @property
    def mem_free(self) -> int:
        return self.spec.mem_bytes - self.mem_used

    def count_of(self, key: str) -> int:
        return sum(1 for r in self.replicas if r.key == key)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "replicas": sorted(r.key for r in self.replicas),
            "mem_used": self.mem_used,
            "mem_bytes": self.spec.mem_bytes,
            "rps_used": round(self.rps_used, 6),
            "compute_rps": self.spec.compute_rps,
        }
