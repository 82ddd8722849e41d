"""Tests for the execution-time surrogate. Expected values are hand-computed,
and the batched execution_times is held to a scalar per-mapping reference."""

import math
from unittest.mock import MagicMock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wearmap.swarm as swarm_module
from wearmap.aging import AgingParams
from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
    SpikeTrain,
    Workload,
)
from wearmap.perf import PerfParams, execution_time, execution_times
from wearmap.swarm import EvalContext


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


def _manhattan_hops(hw, a, b):
    """Hops between tiles a and b of hw's mesh, whose tiles are numbered row
    by row: tile t sits at column t % width of row t // width."""
    (ay, ax), (by, bx) = divmod(a, hw.mesh[0]), divmod(b, hw.mesh[0])
    return abs(ax - bx) + abs(ay - by)


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
        comm_spike_hops += e.spike_count * _manhattan_hops(hw, src_tile, dst_tile)
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


def _mesh_automorphisms(width, height):
    """Every tile relabelling that keeps the mesh's hop distances: the
    reflections of each axis, and on a square mesh the transpose too (8 maps
    on a square, 4 on a rectangle, some of them equal on a 1xT mesh)."""
    maps = []
    for swap in ([False, True] if width == height else [False]):
        for flip_x in (False, True):
            for flip_y in (False, True):
                perm = []
                for t in range(width * height):
                    y, x = divmod(t, width)
                    x = width - 1 - x if flip_x else x
                    y = height - 1 - y if flip_y else y
                    if swap:
                        x, y = y, x
                    perm.append(y * width + x)
                maps.append(np.array(perm))
    return maps


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_execution_times_invariant_under_mesh_automorphisms(batch):
    snn, hw, rows, p = batch
    want = execution_times(rows, snn, hw, p).tolist()
    maps = _mesh_automorphisms(*hw.mesh)
    assert len(maps) == (8 if hw.mesh[0] == hw.mesh[1] else 4)
    for perm in maps:
        moved = perm[rows]
        assert execution_times(moved, snn, hw, p).tolist() == want
        # tile_capacity is the cluster count, so every row is feasible
        assert [execution_time(snn, Mapping(r), hw, p) for r in moved.tolist()] == want


@st.composite
def _multi_block_batches(draw):
    width, height = draw(st.sampled_from([(2, 2), (3, 1), (1, 3), (3, 2), (4, 4)]))
    num_tiles = width * height
    num_clusters = draw(st.integers(2, 6))
    ids = [f"c{i}" for i in range(num_clusters)]
    # the last cluster only ever sends: it receives no spikes at all
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids[:-1])),
                          min_size=1, max_size=8))
    pairs += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))  # duplicates
    pairs.append(draw(st.sampled_from([(c, c) for c in ids[:-1]])))  # a self-loop
    count = st.one_of(st.integers(0, 50), st.integers(2 ** 61, 2 ** 63))
    edges = [Edge(src, dst, draw(count)) for src, dst in pairs]
    snn = ClusteredSnn([Cluster(cid, 4, 8) for cid in ids], edges, 1.0)
    grid = st.integers(0, 19).map(lambda k: k / 20.0)
    trains = {cid: SpikeTrain(draw(st.lists(grid, max_size=4))) for cid in ids}
    hw = _hw(num_tiles=num_tiles, tile_capacity=num_clusters, mesh=(width, height))
    rows = draw(st.lists(st.lists(st.integers(0, num_tiles - 1), min_size=num_clusters,
                                  max_size=num_clusters), min_size=2, max_size=40))
    p = PerfParams(spike_latency=draw(st.sampled_from([1e-6, 2.5e-6])),
                   hop_latency=draw(st.sampled_from([1e-7, 3e-6])),
                   tile_parallelism=draw(st.booleans()))
    cells = draw(st.integers(1, 3 * max(len(edges), num_tiles)))
    return Workload(snn=snn, trains=trains), hw, np.array(rows, dtype=np.int64), p, cells


# Spike counts whose total fits int64 but whose spike_hop_bound on the 4x4
# mesh does not, so execution_times sums them as Python ints.
_OBJECT_SUMS = (
    Workload(snn=_snn([("c0", "c1", 2 ** 61), ("c1", "c0", 2 ** 61 + 1), ("c2", "c1", 5)], n=3),
             trains={"c0": SpikeTrain([0.1, 0.4]), "c1": SpikeTrain([0.2]),
                     "c2": SpikeTrain([0.4, 0.9])}),
    _hw(num_tiles=16, tile_capacity=3, mesh=(4, 4)),
    np.array([[0, 15, 3], [15, 0, 0], [5, 6, 6], [3, 3, 3]], dtype=np.int64),
    PerfParams(), 7)

# A one-row mesh of 256 tiles, whose indices just fit uint8 but whose width
# does not.
_WIDE_ROW = (
    Workload(snn=_snn([("c0", "c1", 3), ("c1", "c2", 4), ("c2", "c0", 5)], n=3),
             trains={"c0": SpikeTrain([0.1]), "c1": SpikeTrain([0.2]), "c2": SpikeTrain([])}),
    _hw(num_tiles=256, tile_capacity=3, mesh=(256, 1)),
    np.array([[0, 255, 128], [255, 0, 0], [7, 7, 7]], dtype=np.int64),
    PerfParams(hop_latency=3e-6), 300)


@settings(max_examples=200, deadline=None)
@given(_multi_block_batches())
@example(_OBJECT_SUMS)
@example(_WIDE_ROW)
def test_evaluate_rows_across_blocks_equals_per_row_evaluate(batch):
    # evaluate_rows splits a batch into blocks of at most `cells` (edge, tile
    # or cluster) x row cells, so these batches of up to 40 rows cross several
    # block boundaries. The empty batch, one row and the whole batch each
    # equal evaluate on every row, and tau the scalar reference. The rows come
    # as int64, as the swarm passes them, and in the unsigned types the oracle
    # passes; execution_times and worst_tile_agings also take them whole.
    workload, hw, rows, p, cells = batch
    snn = workload.snn
    ref_ctx = EvalContext(workload, hw, AgingParams(), p)
    want = [ref_ctx.evaluate(Mapping(r)) for r in rows.tolist()]
    assert [e.tau for e in want] == [_reference_execution_time(snn, r, hw, p)
                                     for r in rows.tolist()]
    step = max(1, cells // max(len(snn.resolved_edges), hw.num_tiles, len(snn.clusters)))
    for typed in (rows, rows.astype(np.uint8), rows.astype(np.uint16)):
        assert execution_times(typed, snn, hw, p).tolist() == [e.tau for e in want]
        ctx = EvalContext(workload, hw, AgingParams(), p)
        assert ctx.worst_tile_agings(typed).tolist() == [e.aging for e in want]
        for n in (0, 1, len(rows)):
            ctx = EvalContext(workload, hw, AgingParams(), p)
            blocks = MagicMock(wraps=execution_times)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(swarm_module, "_BLOCK_CELLS", cells)
                mp.setattr(swarm_module, "execution_times", blocks)
                got = ctx.evaluate_rows(typed[:n])
            assert [len(c.args[0]) for c in blocks.call_args_list] == [
                len(rows[lo:min(n, lo + step)]) for lo in range(0, n, step)]
            assert all(c.dtype == np.float64 and c.shape == (n,) for c in got)
            assert list(zip(*(c.tolist() for c in got))) == [tuple(e) for e in want[:n]]
