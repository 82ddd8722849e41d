"""Tests for the execution-time surrogate. Expected values are hand-computed,
and the batched execution_times is held to a scalar per-mapping reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
)
from wearmap.perf import PerfParams, execution_time, execution_times


def _hw(num_tiles=4, tile_capacity=1, mesh=None):
    return HardwareConfig(
        num_tiles=num_tiles,
        crossbar_dim=64,
        device_profile=DeviceProfile(kind="diode_1D1R"),
        tile_capacity=tile_capacity,
        mesh=mesh,
    )


def _snn(edges, n=2):
    clusters = [Cluster(f"c{i}", 4, 8) for i in range(n)]
    return ClusteredSnn(clusters, [Edge(*e) for e in edges], 1.0)


def test_perf_defaults():
    p = PerfParams()
    assert p.spike_latency == 1e-6
    assert p.hop_latency == 1e-7
    assert p.tile_parallelism is True


def test_perf_validation():
    with pytest.raises(ValueError):
        PerfParams(spike_latency=-1.0)
    with pytest.raises(ValueError):
        PerfParams(hop_latency=-1.0)
    for field in ("spike_latency", "hop_latency"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                PerfParams(**{field: value})


def test_no_edges_costs_nothing():
    snn = _snn([], n=2)
    assert execution_time(snn, Mapping([0, 1]), _hw(), PerfParams()) == 0.0


def test_chain_hand_computed():
    # c0 -> c1 with 10 spikes, tiles 0 and 1 are 1 hop apart on a 2x2 mesh.
    # compute: 10 arrivals at c1's tile * 1e-6; comms: 10 * 1 hop * 1e-7.
    snn = _snn([("c0", "c1", 10)])
    hw = _hw(num_tiles=4, mesh=(2, 2))
    got = execution_time(snn, Mapping([0, 1]), hw, PerfParams())
    assert math.isclose(got, 10 * 1e-6 + 10 * 1 * 1e-7, rel_tol=1e-15)


def test_diagonal_costs_two_hops():
    snn = _snn([("c0", "c1", 10)])
    hw = _hw(num_tiles=4, mesh=(2, 2))
    got = execution_time(snn, Mapping([0, 3]), hw, PerfParams())
    assert math.isclose(got, 10 * 1e-6 + 10 * 2 * 1e-7, rel_tol=1e-15)


def test_same_tile_eliminates_hops():
    snn = _snn([("c0", "c1", 10)])
    hw = _hw(num_tiles=4, tile_capacity=2)
    got = execution_time(snn, Mapping([0, 0]), hw, PerfParams())
    assert math.isclose(got, 10 * 1e-6, rel_tol=1e-15)


def test_sender_compute_is_free():
    # Arrivals only: the source tile spends no modeled compute time.
    snn = _snn([("c0", "c1", 7)])
    hw = _hw(num_tiles=4, mesh=(2, 2))
    p = PerfParams(hop_latency=0.0)
    got = execution_time(snn, Mapping([0, 1]), hw, p)
    assert math.isclose(got, 7 * 1e-6, rel_tol=1e-15)


def test_parallel_tiles_take_max():
    # Two independent chains, arrivals 10 and 4 on different tiles: max wins.
    snn = ClusteredSnn(
        [Cluster(f"c{i}", 4, 8) for i in range(4)],
        [Edge("c0", "c1", 10), Edge("c2", "c3", 4)],
        1.0,
    )
    hw = _hw(num_tiles=4, mesh=(2, 2))
    p = PerfParams(hop_latency=0.0)
    got = execution_time(snn, Mapping([0, 1, 2, 3]), hw, p)
    assert math.isclose(got, 10 * 1e-6, rel_tol=1e-15)


def test_serial_tiles_sum():
    snn = ClusteredSnn(
        [Cluster(f"c{i}", 4, 8) for i in range(4)],
        [Edge("c0", "c1", 10), Edge("c2", "c3", 4)],
        1.0,
    )
    hw = _hw(num_tiles=4, mesh=(2, 2))
    p = PerfParams(hop_latency=0.0, tile_parallelism=False)
    got = execution_time(snn, Mapping([0, 1, 2, 3]), hw, p)
    assert math.isclose(got, 14 * 1e-6, rel_tol=1e-15)


def test_colocated_arrivals_stack():
    # c1 and c3 share a tile: arrivals add before the max.
    snn = ClusteredSnn(
        [Cluster(f"c{i}", 4, 8) for i in range(4)],
        [Edge("c0", "c1", 10), Edge("c2", "c3", 4)],
        1.0,
    )
    hw = _hw(num_tiles=4, tile_capacity=2, mesh=(2, 2))
    p = PerfParams(hop_latency=0.0)
    got = execution_time(snn, Mapping([0, 1, 2, 1]), hw, p)
    assert math.isclose(got, 14 * 1e-6, rel_tol=1e-15)


def test_fan_in_sums_over_edges():
    snn = ClusteredSnn(
        [Cluster(f"c{i}", 4, 8) for i in range(3)],
        [Edge("c0", "c2", 5), Edge("c1", "c2", 3)],
        1.0,
    )
    hw = _hw(num_tiles=4, mesh=(2, 2))
    # c0 at 0=(0,0), c1 at 3=(1,1), c2 at 1=(1,0): hops 1 and 1.
    got = execution_time(snn, Mapping([0, 3, 1]), hw, PerfParams())
    want = 8 * 1e-6 + (5 * 1 + 3 * 1) * 1e-7
    assert math.isclose(got, want, rel_tol=1e-15)


def test_self_loop_costs_compute_only():
    snn = _snn([("c0", "c0", 6)], n=1)
    hw = _hw(num_tiles=2)
    got = execution_time(snn, Mapping([0]), hw, PerfParams())
    assert math.isclose(got, 6 * 1e-6, rel_tol=1e-15)


def test_dangling_edges_ignored():
    snn = _snn([("c0", "ghost", 5)], n=2)
    hw = _hw(num_tiles=4)
    assert execution_time(snn, Mapping([0, 1]), hw, PerfParams()) == 0.0


def test_invalid_mapping_raises():
    snn = _snn([("c0", "c1", 1)])
    with pytest.raises(MappingConstraintError):
        execution_time(snn, Mapping([0, 0]), _hw(tile_capacity=1), PerfParams())


def test_wide_mesh_hop_distance():
    # 1x4 mesh: tiles laid out in a row, ends are 3 hops apart.
    snn = _snn([("c0", "c1", 1)])
    hw = _hw(num_tiles=4, mesh=(4, 1))
    got = execution_time(snn, Mapping([0, 3]), hw, PerfParams())
    assert math.isclose(got, 1e-6 + 3 * 1e-7, rel_tol=1e-15)


# ---------------------------------------------------------------- batched


def _reference_execution_time(snn, assignment, hw, p):
    """The scalar surrogate, one mapping at a time: Python-int arrivals and
    spike-hops over the edges, then the float operations."""
    index_of = snn.index_of
    arrivals = [0] * hw.num_tiles
    comm_spike_hops = 0
    for e in snn.edges:
        si = index_of.get(e.src)
        di = index_of.get(e.dst)
        if si is None or di is None:
            continue
        src_tile = assignment[si]
        dst_tile = assignment[di]
        arrivals[dst_tile] += e.spike_count
        comm_spike_hops += e.spike_count * hw.manhattan_hops(src_tile, dst_tile)
    load = max(arrivals) if p.tile_parallelism else sum(arrivals)
    return load * p.spike_latency + comm_spike_hops * p.hop_latency


@st.composite
def _batches(draw):
    width, height = draw(st.sampled_from([(1, 1), (2, 2), (3, 1), (1, 4), (3, 2), (4, 4)]))
    num_tiles = width * height
    num_clusters = draw(st.integers(1, 6))
    ids = [f"c{i}" for i in range(num_clusters)]
    endpoint = st.sampled_from(ids + ["ghost"])  # "ghost" never resolves
    # small counts, silent edges, and counts whose sums pass int64
    count = st.one_of(st.integers(0, 50), st.just(0), st.integers(2 ** 61, 2 ** 63))
    edges = [Edge(src, dst, c) for src, dst, c in draw(st.lists(
        st.tuples(endpoint, endpoint, count), max_size=10))]
    snn = ClusteredSnn([Cluster(cid, 4, 8) for cid in ids], edges, 1.0)
    hw = _hw(num_tiles=num_tiles, tile_capacity=num_clusters, mesh=(width, height))
    rows = draw(st.lists(st.lists(st.integers(0, num_tiles - 1), min_size=num_clusters,
                                  max_size=num_clusters), min_size=1, max_size=8))
    p = PerfParams(
        spike_latency=draw(st.sampled_from([1e-6, 2.5e-6, 0.0])),
        hop_latency=draw(st.sampled_from([1e-7, 3e-6, 0.0])),
        tile_parallelism=draw(st.booleans()),
    )
    return snn, hw, np.array(rows, dtype=np.int64), p


@settings(max_examples=200, deadline=None)
@given(_batches())
def test_execution_times_equal_scalar_reference(batch):
    snn, hw, rows, p = batch
    got = execution_times(rows, snn, hw, p)
    assert got.dtype == np.float64 and got.shape == (rows.shape[0],)
    assert got.tolist() == [_reference_execution_time(snn, r, hw, p) for r in rows.tolist()]
    for r, tau in zip(rows.tolist(), got.tolist()):
        if max(r.count(t) for t in r) <= hw.tile_capacity:
            assert execution_time(snn, Mapping(r), hw, p) == tau


def test_execution_times_object_fallback_is_exact():
    # 2^62 spikes over 6 hops pass int64: the sums switch to Python ints
    snn = _snn([("c0", "c1", 2 ** 62), ("c1", "c0", 2 ** 62 + 1)])
    hw = _hw(num_tiles=16, mesh=(4, 4))
    rows = np.array([[0, 15], [15, 0], [5, 6]])
    p = PerfParams()
    want = [_reference_execution_time(snn, r, hw, p) for r in rows.tolist()]
    assert execution_times(rows, snn, hw, p).tolist() == want


def test_execution_times_empty_batch():
    snn = _snn([("c0", "c1", 3)])
    out = execution_times(np.zeros((0, 2), dtype=np.int64), snn, _hw(), PerfParams())
    assert out.shape == (0,)
