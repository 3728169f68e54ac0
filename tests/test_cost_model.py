"""Analytic cost-model properties: α–β formulas, the two-level
hierarchical topology, and the topology dispatchers.

The key identity (relied on by the bake-off's crossover analysis): the
hierarchical allreduce's bandwidth term reduces *exactly* to the flat
ring's when both fabrics share one bandwidth —

    2(g-1)/g·M/B + 2(n-1)/n·(M/g)/B = 2(ng-1)/(ng)·M/B

so with zero latency hierarchy is free, and any difference between the
topologies is attributable to latency rounds and the slow fabric's share.

``TestPinnedCosts`` hashes every public ``*_time`` / ``*_cost`` function
over one fixed grid.  The formulas are plain IEEE float arithmetic, so the
digest binds on every platform; a refactor of the cost model that moves it
changed a charged second somewhere.  Regenerate on purpose with
``PYTHONPATH=src python tests/test_cost_model.py``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    ClusterSpec,
    HierarchicalSpec,
    allgather_cost,
    allreduce_cost,
    broadcast_cost,
    broadcast_time,
    parameter_server_time,
    allgather_time,
    ring_allreduce_time,
)
from repro.distributed.cost_model import (
    bucket_comm_times,
    hierarchical_allgather_time,
    hierarchical_allreduce_time,
    hierarchical_broadcast_time,
    pipelined_broadcast_cost,
    pipelined_broadcast_time,
)
from repro.utils import canonical_digest

NBYTES = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
WORLD = st.integers(1, 64)
BW = st.floats(0.01, 400.0, allow_nan=False, allow_infinity=False)
LAT = st.floats(0.0, 1e-3, allow_nan=False, allow_infinity=False)

COSTS = [ring_allreduce_time, allgather_time, broadcast_time]


class TestMonotonicity:
    @pytest.mark.parametrize("cost", COSTS)
    @given(a=NBYTES, b=NBYTES, p=WORLD, bw=BW, lat=LAT)
    @settings(max_examples=60, deadline=None)
    def test_more_bytes_never_cheaper(self, cost, a, b, p, bw, lat):
        spec = ClusterSpec(p, bw, lat)
        lo, hi = sorted((a, b))
        assert cost(lo, spec) <= cost(hi, spec)

    @pytest.mark.parametrize("cost", COSTS)
    @given(nbytes=NBYTES, p=WORLD, bw=BW, l1=LAT, l2=LAT)
    @settings(max_examples=60, deadline=None)
    def test_more_latency_never_cheaper(self, cost, nbytes, p, bw, l1, l2):
        lo, hi = sorted((l1, l2))
        assert cost(nbytes, ClusterSpec(p, bw, lo)) <= cost(
            nbytes, ClusterSpec(p, bw, hi)
        )

    @pytest.mark.parametrize("cost", COSTS)
    @given(nbytes=NBYTES, p=WORLD, bw=BW, lat=LAT,
           deg=st.floats(0.05, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_degraded_links_never_cheaper(self, cost, nbytes, p, bw, lat, deg):
        spec = ClusterSpec(p, bw, lat)
        assert cost(nbytes, spec, degradation=deg) >= cost(nbytes, spec)

    @given(nbytes=NBYTES, nodes=st.integers(1, 8), gpus=st.integers(1, 8),
           inter=BW, intra=BW)
    @settings(max_examples=60, deadline=None)
    def test_hierarchical_monotone_in_bytes(self, nbytes, nodes, gpus, inter, intra):
        spec = HierarchicalSpec(nodes, gpus, inter, intra)
        assert hierarchical_allreduce_time(nbytes, spec) <= (
            hierarchical_allreduce_time(nbytes * 2 + 1, spec)
        )
        assert hierarchical_allgather_time(nbytes, spec) <= (
            hierarchical_allgather_time(nbytes * 2 + 1, spec)
        )
        assert hierarchical_broadcast_time(nbytes, spec) <= (
            hierarchical_broadcast_time(nbytes * 2 + 1, spec)
        )


class TestPipelinedBroadcast:
    @given(nbytes=st.floats(1.0, 1e8, allow_nan=False), p=WORLD, bw=BW, lat=LAT)
    @settings(max_examples=60, deadline=None)
    def test_single_chunk_equals_monolithic(self, nbytes, p, bw, lat):
        spec = ClusterSpec(p, bw, lat)
        assert pipelined_broadcast_time([nbytes], spec) == pytest.approx(
            broadcast_time(nbytes, spec)
        )

    @given(chunks=st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=1,
                           max_size=8),
           p=WORLD, bw=BW)
    @settings(max_examples=60, deadline=None)
    def test_tiled_at_most_monolithic_without_latency(self, chunks, p, bw):
        # The latency-free regime where pipelining is a pure win: the
        # bandwidth term is paid once plus one max-chunk tail instead of
        # once per tree level.
        spec = ClusterSpec(p, bw, latency_s=0.0)
        tiled = pipelined_broadcast_time(chunks, spec)
        monolithic = broadcast_time(sum(chunks), spec)
        assert tiled <= monolithic * (1 + 1e-12)

    def test_rejects_empty_and_negative_chunks(self):
        spec = ClusterSpec(4)
        with pytest.raises(ValueError):
            pipelined_broadcast_time([], spec)
        with pytest.raises(ValueError):
            pipelined_broadcast_time([1.0, -1.0], spec)


class TestHierarchicalIdentity:
    @given(nbytes=st.floats(0.0, 1e9, allow_nan=False),
           nodes=st.integers(1, 8), gpus=st.integers(1, 8), bw=BW)
    @settings(max_examples=80, deadline=None)
    def test_equals_flat_ring_when_bandwidths_match(self, nbytes, nodes, gpus, bw):
        # Zero latency + one shared bandwidth: the two-level schedule
        # moves exactly the flat ring's bytes.
        hier = HierarchicalSpec(
            nodes, gpus, inter_bandwidth_gbps=bw, intra_bandwidth_gbps=bw,
            inter_latency_s=0.0, intra_latency_s=0.0,
        )
        flat = ClusterSpec(nodes * gpus, bw, latency_s=0.0)
        assert hierarchical_allreduce_time(nbytes, hier) == pytest.approx(
            ring_allreduce_time(nbytes, flat), rel=1e-9, abs=1e-15
        )

    def test_slow_inter_fabric_dominates(self):
        # 8 ranks: one node of 8 fast gpus beats 8 flat nodes on the
        # slow fabric for a bandwidth-bound payload.
        hier = HierarchicalSpec(1, 8, inter_bandwidth_gbps=10.0,
                                intra_bandwidth_gbps=100.0)
        flat = ClusterSpec(8, 10.0)
        nbytes = 100e6
        assert hierarchical_allreduce_time(nbytes, hier) < ring_allreduce_time(
            nbytes, flat
        )


class TestClusterSpecs:
    def test_world_size_and_with_world(self):
        flat = ClusterSpec(8, 25.0, 1e-5)
        assert flat.world_size == 8
        shrunk = flat.with_world(5)
        assert shrunk == ClusterSpec(5, 25.0, 1e-5)

        hier = HierarchicalSpec(4, 8, 10.0, 100.0)
        assert hier.world_size == 32
        assert hier.intra_spec == ClusterSpec(8, 100.0, hier.intra_latency_s)
        assert hier.inter_spec == ClusterSpec(4, 10.0, hier.inter_latency_s)

    @given(world=st.integers(1, 64), nodes=st.integers(1, 8),
           gpus=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_hierarchical_with_world_covers_world(self, world, nodes, gpus):
        spec = HierarchicalSpec(nodes, gpus).with_world(world)
        assert spec.world_size >= world
        assert spec.gpus_per_node <= max(gpus, 1)
        assert spec.world_size - world < spec.gpus_per_node

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
        with pytest.raises(ValueError):
            ClusterSpec(2, bandwidth_gbps=-1.0)
        with pytest.raises(ValueError):
            HierarchicalSpec(0, 8)
        with pytest.raises(ValueError):
            HierarchicalSpec(2, 0)
        with pytest.raises(ValueError):
            HierarchicalSpec(2, 2, inter_bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            HierarchicalSpec(2, 2, intra_latency_s=-1.0)
        with pytest.raises(ValueError):
            HierarchicalSpec(2, 2).with_world(0)
        with pytest.raises(ValueError):
            ring_allreduce_time(1e6, ClusterSpec(4), degradation=0.0)


class TestTopologyDispatch:
    FLAT = ClusterSpec(6, 12.0)
    HIER = HierarchicalSpec(3, 2, 12.0, 60.0)

    def test_allreduce_dispatch(self):
        assert allreduce_cost(1e6, self.FLAT) == ring_allreduce_time(1e6, self.FLAT)
        assert allreduce_cost(1e6, self.HIER) == hierarchical_allreduce_time(
            1e6, self.HIER
        )

    def test_allgather_dispatch(self):
        assert allgather_cost(1e6, self.FLAT) == allgather_time(1e6, self.FLAT)
        assert allgather_cost(1e6, self.HIER) == hierarchical_allgather_time(
            1e6, self.HIER
        )

    def test_broadcast_dispatch(self):
        assert broadcast_cost(1e6, self.FLAT) == broadcast_time(1e6, self.FLAT)
        assert broadcast_cost(1e6, self.HIER) == hierarchical_broadcast_time(
            1e6, self.HIER
        )

    def test_pipelined_broadcast_dispatch(self):
        chunks = [4e5, 6e5]
        assert pipelined_broadcast_cost(chunks, self.FLAT) == (
            pipelined_broadcast_time(chunks, self.FLAT)
        )
        hier = pipelined_broadcast_cost(chunks, self.HIER)
        expected = pipelined_broadcast_time(
            chunks, self.HIER.inter_spec
        ) + pipelined_broadcast_time(chunks, self.HIER.intra_spec)
        assert hier == pytest.approx(expected)

    def test_bucket_comm_times_follow_dispatch(self):
        sizes = [1e5, 2e5, 3e5]
        assert bucket_comm_times(sizes, self.FLAT) == [
            allreduce_cost(nb, self.FLAT) for nb in sizes
        ]
        assert bucket_comm_times(sizes, self.HIER) == [
            allreduce_cost(nb, self.HIER) for nb in sizes
        ]

    def test_single_rank_is_free(self):
        lone = ClusterSpec(1)
        assert allreduce_cost(1e9, lone) == 0.0
        assert allgather_cost(1e9, lone) == 0.0
        assert broadcast_cost(1e9, lone) == 0.0
        hier = HierarchicalSpec(1, 1)
        assert math.isclose(hierarchical_allreduce_time(1e9, hier), 0.0)


# Every public cost function over one grid: flat rings and two-level
# hierarchies of 1-16 ranks, payloads from empty to 500 MB, nominal and
# degraded links, and bucket / pipelined tilings.
SIZES = (0.0, 1.0, 4096.0, 1e6, 500e6)
DEGRADATIONS = (1.0, 0.5, 0.25)
FLAT = [ClusterSpec(p) for p in range(1, 17)]
HIER = [
    HierarchicalSpec(n, g) for n in range(1, 17) for g in range(1, 17) if n * g <= 16
]
TILINGS = (
    (0.0,),
    (1.0,),
    (4096.0, 4096.0, 1.0),
    (5e5, 5e5, 5e5, 2.5e5),
    (1e6, 1e6, 1e6, 500e6),
)
FLAT_FNS = (
    ring_allreduce_time, allgather_time, broadcast_time,
    allreduce_cost, allgather_cost, broadcast_cost,
)
HIER_FNS = (
    hierarchical_allreduce_time, hierarchical_allgather_time,
    hierarchical_broadcast_time, allreduce_cost, allgather_cost, broadcast_cost,
)


def cost_table() -> list:
    """``[function, cluster, argument, degradation, seconds]`` per grid point."""
    rows = []

    def add(fn, cluster, arg, deg, value):
        rows.append([fn.__name__, repr(cluster), repr(arg), deg, float(value).hex()])

    for deg in DEGRADATIONS:
        for cluster in FLAT:
            for nb in SIZES:
                for fn in FLAT_FNS:
                    add(fn, cluster, nb, deg, fn(nb, cluster, deg))
                for servers in (1, cluster.num_nodes):
                    ps = parameter_server_time(nb, cluster, servers, degradation=deg)
                    add(parameter_server_time, cluster, (nb, servers), deg, ps)
            for tiling in TILINGS:
                add(pipelined_broadcast_time, cluster, tiling, deg,
                    pipelined_broadcast_time(tiling, cluster, deg))
        for cluster in HIER:
            for nb in SIZES:
                for fn in HIER_FNS:
                    add(fn, cluster, nb, deg, fn(nb, cluster, deg))
        for cluster in FLAT + HIER:
            for tiling in TILINGS:
                add(pipelined_broadcast_cost, cluster, tiling, deg,
                    pipelined_broadcast_cost(tiling, cluster, deg))
                for i, t in enumerate(bucket_comm_times(tiling, cluster, deg)):
                    add(bucket_comm_times, cluster, (tiling, i), deg, t)
    return rows


PINNED_COSTS = "ba4989e9645bb29e"


class TestPinnedCosts:
    def test_grid_digest(self):
        assert canonical_digest(cost_table()) == PINNED_COSTS


if __name__ == "__main__":
    table = cost_table()
    print(f"{len(table)} rows")
    print(f'PINNED_COSTS = "{canonical_digest(table)}"')
