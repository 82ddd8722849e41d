"""Tests for the execution-time surrogate. Expected values are hand-computed."""

import math

import pytest

from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
)
from wearmap.perf import PerfParams, execution_time


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
