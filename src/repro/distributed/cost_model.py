"""Analytic communication cost models (α–β model, Thakur et al. 2005).

The paper's own efficiency argument rests on these formulas: ring
allreduce moves ``2(p-1)/p · M`` bytes per node in ``2(p-1)`` latency
rounds, while allgather (the fallback for compressors whose encoding is
not sum-compatible, e.g. Signum) delivers ``(p-1) · M`` bytes *per sender*
to every node — its cost grows with the node count, which is exactly why
high-ratio compressors can lose end-to-end (Section 4.2 / Appendix F).

Bandwidth defaults to the paper's testbed: p3.2xlarge, "up to 10 Gbps".
Every function is a pure formula of its arguments, evaluated on each call;
``degradation`` scales the link bandwidth (fault injection's congestion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "bucket_comm_times",
]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster for the simulator.

    Attributes
    ----------
    num_nodes: world size ``p``.
    bandwidth_gbps: per-link bandwidth in gigabits/s (paper: 10).
    latency_s: per-message latency ``α`` (EC2 same-AZ ≈ 50 µs).
    """

    num_nodes: int
    bandwidth_gbps: float = 10.0
    latency_s: float = 50e-6

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    @property
    def world_size(self) -> int:
        """Total rank count (equals ``num_nodes`` for a flat cluster)."""
        return self.num_nodes

    def with_world(self, world: int) -> "ClusterSpec":
        """The same links with ``world`` ranks (shrink-mode recovery)."""
        return ClusterSpec(world, self.bandwidth_gbps, self.latency_s)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.bandwidth_gbps <= 0 or self.latency_s < 0:
            raise ValueError("invalid bandwidth/latency")


@dataclass(frozen=True)
class HierarchicalSpec:
    """A two-level cluster: fast intra-node links, slow inter-node links.

    Production clusters are not flat rings — ``gpus_per_node`` ranks share
    NVLink/PCIe-class bandwidth inside a node while nodes see each other
    over the datacenter fabric.  Collectives go hierarchical: intra-node
    reduce-scatter, inter-node ring allreduce over the ``1/g`` shard, then
    intra-node allgather.

    Attributes
    ----------
    num_nodes: nodes in the inter-node ring.
    gpus_per_node: ranks sharing each node's fast interconnect.
    inter_bandwidth_gbps / inter_latency_s: the node-to-node fabric.
    intra_bandwidth_gbps / intra_latency_s: the in-node interconnect.
    """

    num_nodes: int
    gpus_per_node: int = 8
    inter_bandwidth_gbps: float = 10.0
    intra_bandwidth_gbps: float = 100.0
    inter_latency_s: float = 50e-6
    intra_latency_s: float = 5e-6

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def intra_spec(self) -> ClusterSpec:
        """The in-node ring as a flat cluster."""
        return ClusterSpec(
            self.gpus_per_node, self.intra_bandwidth_gbps, self.intra_latency_s
        )

    @property
    def inter_spec(self) -> ClusterSpec:
        """The node-to-node ring as a flat cluster."""
        return ClusterSpec(
            self.num_nodes, self.inter_bandwidth_gbps, self.inter_latency_s
        )

    def with_world(self, world: int) -> "HierarchicalSpec":
        """Approximate this topology at ``world`` ranks (shrink recovery).

        Nodes drain whole: the inter-node ring shrinks to
        ``ceil(world / gpus_per_node)`` nodes; if fewer ranks than one
        node remain, the cluster degenerates to a single partially-filled
        node.  An approximation — a real shrink could leave a ragged last
        node — but a pure function of ``world``, so determinism holds.
        """
        if world < 1:
            raise ValueError("world must be >= 1")
        g = min(self.gpus_per_node, world)
        n = math.ceil(world / g)
        return HierarchicalSpec(
            n,
            g,
            self.inter_bandwidth_gbps,
            self.intra_bandwidth_gbps,
            self.inter_latency_s,
            self.intra_latency_s,
        )

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("num_nodes and gpus_per_node must be >= 1")
        if self.inter_bandwidth_gbps <= 0 or self.intra_bandwidth_gbps <= 0:
            raise ValueError("invalid bandwidth")
        if self.inter_latency_s < 0 or self.intra_latency_s < 0:
            raise ValueError("invalid latency")


def _check_degradation(degradation: float) -> None:
    if not 0.0 < degradation <= 1.0:
        raise ValueError("degradation must be in (0, 1]")


def ring_allreduce_time(
    nbytes: float, cluster: ClusterSpec, degradation: float = 1.0
) -> float:
    """Ring allreduce: ``2(p-1)α + 2 (p-1)/p · M/B`` seconds.

    ``degradation`` scales the effective link bandwidth (1.0 = nominal);
    fault injection uses it to model transient congestion.
    """
    _check_degradation(degradation)
    p = cluster.num_nodes
    if p == 1:
        return 0.0
    bps = cluster.bytes_per_second * degradation
    return 2 * (p - 1) * cluster.latency_s + 2 * (p - 1) / p * nbytes / bps


def bucket_comm_times(
    bucket_nbytes, cluster, degradation: float = 1.0
) -> list[float]:
    """Allreduce seconds for each bucket payload (flat or hierarchical)."""
    return [allreduce_cost(nb, cluster, degradation) for nb in bucket_nbytes]


def allgather_time(
    nbytes: float, cluster: ClusterSpec, degradation: float = 1.0
) -> float:
    """Ring allgather of per-node payloads of ``nbytes``:
    ``(p-1)α + (p-1) · M/B`` seconds."""
    _check_degradation(degradation)
    p = cluster.num_nodes
    if p == 1:
        return 0.0
    bps = cluster.bytes_per_second * degradation
    return (p - 1) * cluster.latency_s + (p - 1) * nbytes / bps


def broadcast_time(
    nbytes: float, cluster: ClusterSpec, degradation: float = 1.0
) -> float:
    """Binomial-tree broadcast: ``ceil(log2 p) (α + M/B)``."""
    _check_degradation(degradation)
    p = cluster.num_nodes
    if p == 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    bps = cluster.bytes_per_second * degradation
    return rounds * (cluster.latency_s + nbytes / bps)


def pipelined_broadcast_time(
    chunk_nbytes, cluster: ClusterSpec, degradation: float = 1.0
) -> float:
    """Chunked (pipelined) binomial-tree broadcast of payload tiles.

    With the payload split into chunks ``c_i`` flowing through the
    ``L = ceil(log2 p)`` tree levels store-and-forward style, the root
    injects chunks back to back and the last chunk drains the remaining
    levels behind the largest chunk:

        ``Σ_i (α + c_i/B)  +  (L − 1)(α + c_max/B)``

    For a single chunk this is exactly :func:`broadcast_time`; for a
    multi-chunk payload it is strictly cheaper whenever ``L > 1`` — the
    bandwidth term is paid once plus one max-chunk tail instead of ``L``
    times, which is why the recovery broadcast reuses the overlap
    schedule's bucket tiling.
    """
    _check_degradation(degradation)
    chunks = [float(c) for c in chunk_nbytes]
    if not chunks:
        raise ValueError("need at least one chunk")
    if any(c < 0 for c in chunks):
        raise ValueError("chunk sizes must be non-negative")
    p = cluster.num_nodes
    if p == 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    bps = cluster.bytes_per_second * degradation
    inject = sum(cluster.latency_s + c / bps for c in chunks)
    tail = (rounds - 1) * (cluster.latency_s + max(chunks) / bps)
    return inject + tail


# ---------------------------------------------------------------------------
# Two-level hierarchical collectives.  ``degradation`` scales both fabrics
# (fault injection models cluster-wide congestion); the bandwidth term of
# the hierarchical allreduce reduces *exactly* to the flat ring's
# ``2(p-1)/p · M/B`` when both levels share one bandwidth:
#
#     2(g-1)/g·M/B + 2(n-1)/n·(M/g)/B = 2(ng-1)/(ng)·M/B
#
# so with zero latency the hierarchy is free — the win (and the loss) is
# entirely in where the latency rounds and the slow fabric's share land.


def hierarchical_allreduce_time(
    nbytes: float, cluster: HierarchicalSpec, degradation: float = 1.0
) -> float:
    """Reduce-scatter in-node → inter-node ring allreduce of the ``1/g``
    shard → allgather in-node."""
    _check_degradation(degradation)
    g = cluster.gpus_per_node
    intra = cluster.intra_spec
    # Reduce-scatter and allgather are each half a ring allreduce:
    # (g-1) latency rounds moving (g-1)/g · M bytes.
    half_ring = 0.0
    if g > 1:
        bps = intra.bytes_per_second * degradation
        half_ring = (g - 1) * intra.latency_s + (g - 1) / g * nbytes / bps
    mid = ring_allreduce_time(nbytes / g, cluster.inter_spec, degradation)
    return 2 * half_ring + mid


def hierarchical_allgather_time(
    nbytes: float, cluster: HierarchicalSpec, degradation: float = 1.0
) -> float:
    """In-node allgather of per-rank payloads, then inter-node allgather
    of the fused ``g · M`` node payload."""
    _check_degradation(degradation)
    intra = allgather_time(nbytes, cluster.intra_spec, degradation)
    inter = allgather_time(
        nbytes * cluster.gpus_per_node, cluster.inter_spec, degradation
    )
    return intra + inter


def hierarchical_broadcast_time(
    nbytes: float, cluster: HierarchicalSpec, degradation: float = 1.0
) -> float:
    """Binomial broadcast across nodes, then across each node's ranks."""
    _check_degradation(degradation)
    inter = broadcast_time(nbytes, cluster.inter_spec, degradation)
    intra = broadcast_time(nbytes, cluster.intra_spec, degradation)
    return inter + intra


# ---------------------------------------------------------------------------
# Topology dispatch: the simulator charges collectives without caring
# whether the cluster is a flat ring or a two-level hierarchy.


def allreduce_cost(nbytes: float, cluster, degradation: float = 1.0) -> float:
    """Allreduce seconds on either topology."""
    if isinstance(cluster, HierarchicalSpec):
        return hierarchical_allreduce_time(nbytes, cluster, degradation)
    return ring_allreduce_time(nbytes, cluster, degradation)


def allgather_cost(nbytes: float, cluster, degradation: float = 1.0) -> float:
    """Allgather seconds on either topology."""
    if isinstance(cluster, HierarchicalSpec):
        return hierarchical_allgather_time(nbytes, cluster, degradation)
    return allgather_time(nbytes, cluster, degradation)


def broadcast_cost(nbytes: float, cluster, degradation: float = 1.0) -> float:
    """Broadcast seconds on either topology."""
    if isinstance(cluster, HierarchicalSpec):
        return hierarchical_broadcast_time(nbytes, cluster, degradation)
    return broadcast_time(nbytes, cluster, degradation)


def pipelined_broadcast_cost(
    chunk_nbytes, cluster, degradation: float = 1.0
) -> float:
    """Pipelined broadcast seconds on either topology.

    On a hierarchy the tiles pipeline down the inter-node tree and the
    receiving node forwards them through one in-node broadcast stage,
    charged as a pipelined intra broadcast of the same tiling.
    """
    if isinstance(cluster, HierarchicalSpec):
        return pipelined_broadcast_time(
            chunk_nbytes, cluster.inter_spec, degradation
        ) + pipelined_broadcast_time(chunk_nbytes, cluster.intra_spec, degradation)
    return pipelined_broadcast_time(chunk_nbytes, cluster, degradation)
