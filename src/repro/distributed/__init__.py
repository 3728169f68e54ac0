"""Distributed data-parallel training simulator: α–β cost models, the exact
allreduce mean, per-epoch timeline breakdowns, and seeded fault injection
(stragglers, link degradation, message drops, worker failures)."""

from .cost_model import (
    ClusterSpec,
    HierarchicalSpec,
    ring_allreduce_time,
    allgather_time,
    broadcast_time,
    pipelined_broadcast_time,
    hierarchical_allreduce_time,
    hierarchical_allgather_time,
    hierarchical_broadcast_time,
    allreduce_cost,
    allgather_cost,
    broadcast_cost,
    pipelined_broadcast_cost,
    bucket_comm_times,
)
from .collectives import allreduce_mean, bucketed_allreduce_mean
from .ddp import TimelineBreakdown, DistributedTrainer
from .overlap import (
    Bucket,
    BucketEvent,
    OverlapTimeline,
    build_buckets,
    schedule_overlap,
    GradientArrivalRecorder,
)
from .errors import (
    AllWorkersLostError,
    CollectiveTimeoutError,
    DistributedError,
    FaultSpecError,
)
from .faults import (
    DropSpec,
    FailureSpec,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    LinkSpec,
    StragglerSpec,
    parse_fault_spec,
)
from .parameter_server import parameter_server_time, BandwidthTrace, effective_epoch_times

__all__ = [
    "ClusterSpec",
    "HierarchicalSpec",
    "ring_allreduce_time",
    "allgather_time",
    "broadcast_time",
    "pipelined_broadcast_time",
    "hierarchical_allreduce_time",
    "hierarchical_allgather_time",
    "hierarchical_broadcast_time",
    "allreduce_cost",
    "allgather_cost",
    "broadcast_cost",
    "pipelined_broadcast_cost",
    "allreduce_mean",
    "TimelineBreakdown",
    "DistributedTrainer",
    "Bucket",
    "BucketEvent",
    "OverlapTimeline",
    "build_buckets",
    "schedule_overlap",
    "GradientArrivalRecorder",
    "bucket_comm_times",
    "bucketed_allreduce_mean",
    "parameter_server_time",
    "BandwidthTrace",
    "effective_epoch_times",
    "DistributedError",
    "FaultSpecError",
    "CollectiveTimeoutError",
    "AllWorkersLostError",
    "FaultSpec",
    "FaultInjector",
    "FaultEvent",
    "StragglerSpec",
    "LinkSpec",
    "DropSpec",
    "FailureSpec",
    "parse_fault_spec",
]
