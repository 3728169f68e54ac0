"""Replica placement + autoscaling control plane over :mod:`repro.serve`.

Pufferfish's serving claim — factorized models are permanently smaller,
so a fleet serving them needs fewer hosts at the same SLO — becomes a
measured quantity here.  The package layers a deterministic,
discrete-event *cluster* model over the single-pool serving simulator:

* :mod:`repro.cluster.hosts`      — hosts with memory/compute budgets;
  replica costs derived from the registry's exact parameter accounting
  and measured latency-profile capacity.
* :mod:`repro.cluster.placement`  — bin-packing placement engine
  (first-fit-decreasing / best-fit / spread) with fleet-cost reporting
  and explicit rejection (never silent drops).
* :mod:`repro.cluster.scenario`   — seeded multi-phase load scenarios,
  sliced into fixed evaluation windows with counter-keyed RNG.
* :mod:`repro.cluster.policies`   — pluggable scaling policies
  (target-utilization, shed-rate) with hysteresis dead bands.
* :mod:`repro.cluster.autoscaler` — the control loop: per-pool serving
  sims per window → policy deltas under cooldown → timeline + digest.
* :mod:`repro.cluster.canary`     — staged traffic shift full-rank →
  factorized, gated on shed-rate delta; promotes or rolls back.

Every run is a pure function of ``(seed, profiles, config)`` and emits
a sha256 timeline digest; ``cluster.*`` metrics flow through
:mod:`repro.observability`.  See ``docs/CLUSTER.md``.
"""

from .autoscaler import ClusterAutoscaler, ClusterReport, PoolConfig, ScaleEvent
from .canary import CanaryConfig, run_canary
from .errors import ClusterConfigError, ClusterError
from .hosts import Host, HostSpec, ReplicaSpec, replica_spec_for
from .placement import lower_bound_hosts, next_fit, pack
from .policies import (
    ShedRatePolicy,
    TargetUtilizationPolicy,
    WindowStats,
    make_policy,
)
from .scenario import ClusterScenario, LoadPhase, parse_phases, route_arrivals

__all__ = [
    "ClusterError",
    "ClusterConfigError",
    "Host",
    "HostSpec",
    "ReplicaSpec",
    "replica_spec_for",
    "pack",
    "next_fit",
    "lower_bound_hosts",
    "ClusterScenario",
    "LoadPhase",
    "parse_phases",
    "route_arrivals",
    "WindowStats",
    "TargetUtilizationPolicy",
    "ShedRatePolicy",
    "make_policy",
    "PoolConfig",
    "ScaleEvent",
    "ClusterReport",
    "ClusterAutoscaler",
    "CanaryConfig",
    "run_canary",
]
