"""Tests for the brute-force enumeration oracle."""

import hashlib
import itertools
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wearmap.swarm as swarm_module
from wearmap.aging import AgingParams, combine_aging, hosted_set_mechanism_agings
from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    Mapping,
    SpikeTrain,
    Workload,
    WorkloadShape,
    generate_poisson_workload,
    mapping_violations,
)
from wearmap.oracle import (
    ENUMERATION_GUARD,
    GuardExceededError,
    _canonical_rows,
    _objective_table,
    brute_force_optimum,
    brute_force_pareto,
    count_feasible_mappings,
)
from wearmap.perf import PerfParams
from wearmap.swarm import (
    EvalContext,
    Evaluation,
    FrontPoint,
    InfeasibleError,
    ParetoFront,
    PsoConfig,
    extract_pareto,
    optimize,
)

from test_perf import _mesh_automorphisms
from test_swarm import _Entry, _as_archive


def _hw(num_tiles, tile_capacity=1):
    return HardwareConfig(
        num_tiles=num_tiles,
        crossbar_dim=64,
        device_profile=DeviceProfile(kind="diode_1D1R"),
        tile_capacity=tile_capacity,
    )


def _snn(n):
    return ClusteredSnn([Cluster(f"c{i}", 4, 8) for i in range(n)], [], 1.0)


def _ctx(num_clusters, num_tiles, tile_capacity=1, seed=7, rate=50.0):
    wl = generate_poisson_workload(
        WorkloadShape(num_clusters=num_clusters, kind="chain"), rate, 1.0, seed
    )
    hw = _hw(num_tiles, tile_capacity)
    return EvalContext(wl, hw, AgingParams(), PerfParams())


# ---------------------------------------------------------------- counting


def test_count_small_cases():
    assert count_feasible_mappings(2, 2, 1) == 2
    assert count_feasible_mappings(3, 3, 1) == 6
    assert count_feasible_mappings(2, 3, 1) == 6  # 3P2
    assert count_feasible_mappings(4, 4, 1) == 24
    assert count_feasible_mappings(4, 2, 2) == 6  # choose tile-0 pair
    assert count_feasible_mappings(3, 2, 2) == 6  # 2^3 minus the two 3-0 splits
    assert count_feasible_mappings(1, 1, 1) == 1


def test_count_matches_exhaustive_filter():
    for n_c, n_t, cap in [(3, 3, 1), (4, 2, 2), (4, 3, 2), (5, 4, 2)]:
        brute = sum(
            1
            for assign in itertools.product(range(n_t), repeat=n_c)
            if max(assign.count(t) for t in range(n_t)) <= cap
        )
        assert count_feasible_mappings(n_c, n_t, cap) == brute


def test_count_unconstrained_is_power():
    assert count_feasible_mappings(5, 3, 5) == 3 ** 5


# ---------------------------------------------------------------- enumeration


def test_enumerate_counts_and_order():
    for n_c, n_t, cap in [(2, 2, 1), (3, 3, 1), (2, 3, 1), (4, 2, 2)]:
        hw = _hw(n_t, cap)
        snn = _snn(n_c)
        seen = [m.assignment for m in _reference_mappings(snn, hw)]
        assert len(seen) == count_feasible_mappings(n_c, n_t, cap)
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        for a in seen:
            assert mapping_violations(Mapping(a), snn, hw) == []


def test_enumerate_guard_is_eager():
    # 8 clusters on 8 tiles with capacity 8: 8^8 > 1e6. The guard must fire
    # before any row of the table is built.
    with pytest.raises(GuardExceededError) as err:
        _canonical_rows(_snn(8), _hw(8, tile_capacity=8))
    assert err.value.count == 8 ** 8
    assert str(8 ** 8) in str(err.value)
    assert err.value.limit == ENUMERATION_GUARD


def test_guard_counts_every_feasible_mapping_not_the_orbits():
    # 7 clusters on a 3x3 mesh of capacity 7: 9^7 feasible mappings, over the
    # guard, in 598,965 orbits under the mesh's 8 isometries, which are not.
    hw = HardwareConfig(num_tiles=9, crossbar_dim=64, mesh=(3, 3),
                        device_profile=DeviceProfile(kind="diode_1D1R"), tile_capacity=7)
    group = _mesh_automorphisms(3, 3)
    # Burnside: a mapping is fixed by a map iff every cluster sits on a fixed tile
    orbits = sum(int((perm == np.arange(9)).sum()) ** 7 for perm in group) // len(group)
    assert orbits == 598_965 < ENUMERATION_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError) as err:
            _canonical_rows(_snn(7), hw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.count == 9 ** 7 == 4_782_969
    # the canonical rows alone would take 598,965 x 7 x 8 bytes, about 34 MB
    assert peak < 2 ** 20


def test_enumerate_infeasible():
    with pytest.raises(InfeasibleError):
        _canonical_rows(_snn(3), _hw(2, tile_capacity=1))


# ---------------------------------------------------------------- optimum


def test_optimum_single_cluster():
    ctx = _ctx(1, 1)
    res = brute_force_optimum(ctx.workload.snn, ctx.hw, ctx)
    assert res.mapping.assignment == (0,)


def test_optimum_matches_inline_min():
    ctx = _ctx(3, 3, seed=11)
    res = brute_force_optimum(ctx.workload.snn, ctx.hw, ctx)
    best = min(
        ctx.evaluate(Mapping(p)).lam for p in itertools.permutations(range(3))
    )
    assert res.evaluation.lam == best


def test_optimum_tie_breaks_lexicographic():
    # Zero spikes: every mapping has lambda 0; the first lexicographic wins.
    snn = ClusteredSnn([Cluster("a", 4, 8), Cluster("b", 4, 8)], [], 1.0)
    wl = Workload(snn=snn, trains={"a": SpikeTrain([]), "b": SpikeTrain([])})
    ctx = EvalContext(wl, _hw(2), AgingParams(), PerfParams())
    res = brute_force_optimum(snn, ctx.hw, ctx)
    assert res.mapping.assignment == (0, 1)
    assert res.evaluation.lam == 0.0


def test_optimum_symmetric_instance():
    # Identical independent clusters: any permutation of an optimum is optimal.
    wl = generate_poisson_workload(WorkloadShape(2, kind="chain"), 0.0, 1.0, 0)
    trains = {"c0": SpikeTrain([0.1, 0.2]), "c1": SpikeTrain([0.1, 0.2])}
    snn = ClusteredSnn(wl.snn.clusters, [], 1.0)
    ctx = EvalContext(Workload(snn=snn, trains=trains), _hw(2), AgingParams(), PerfParams())
    res = brute_force_optimum(snn, ctx.hw, ctx)
    mirrored = Mapping([1 - t for t in res.mapping.assignment])
    assert ctx.evaluate(mirrored).lam == res.evaluation.lam


def test_pso_never_beats_oracle():
    for seed in range(3):
        ctx = _ctx(4, 2, tile_capacity=2, seed=seed)
        oracle = brute_force_optimum(ctx.workload.snn, ctx.hw, ctx)
        res = optimize(ctx.workload.snn, ctx.hw,
                       PsoConfig(n_particles=6, max_iterations=5, seed=seed), ctx)
        assert res.evaluation.lam >= oracle.evaluation.lam


# ---------------------------------------------------------------- pareto


def test_pareto_front_of_trade_off_instance():
    # A light chain a->b plus two heavy independent spikers c, d on two
    # capacity-2 tiles. Keeping the chain together forces c and d to share a
    # tile (fast but hot); splitting the chain lets c and d separate (one hop
    # slower but much cooler). Both partitions survive as front points.
    rng = np.random.default_rng(17)

    def train(n):
        return SpikeTrain(np.sort(rng.uniform(0.0, 1.0, n)))

    clusters = [Cluster(x, 4, 8) for x in "abcd"]
    snn = ClusteredSnn(clusters, [Edge("a", "b", 10)], 1.0)
    trains = {"a": train(10), "b": train(10), "c": train(150), "d": train(150)}
    hw = _hw(2, tile_capacity=2)
    ctx = EvalContext(Workload(snn=snn, trains=trains), hw, AgingParams(), PerfParams())
    front = brute_force_pareto(snn, hw, ctx)
    objectives = sorted({(p.tau, p.aging) for p in front.points})
    assert len(front.points) == 4  # each objective realized by a mirrored pair
    assert len(objectives) == 2
    fast, slow = objectives
    assert fast[0] < slow[0] and fast[1] > slow[1]


def test_chain_colocation_dominates():
    # With a pure chain every tile inherits its predecessors' spikes anyway,
    # so splitting neighbors buys no aging relief: one objective point rules.
    ctx = _ctx(2, 2, tile_capacity=2, seed=5)
    front = brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
    assert len({(p.tau, p.aging) for p in front.points}) == 1


def test_pareto_two_mapping_instance():
    ctx = _ctx(2, 2, tile_capacity=1, seed=5)
    front = brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
    # Both placements are objective-identical by symmetry; neither dominates.
    assert len(front.points) == 2
    assert front.points[0].tau == front.points[1].tau
    assert front.points[0].aging == front.points[1].aging


def test_pareto_matches_archive_extraction():
    # Dual route: the oracle's front and the swarm's extract_pareto, written
    # apart, must agree on the full enumeration of random instances.
    for seed in range(6):
        ctx = _ctx(4, 2, tile_capacity=2, seed=seed, rate=80.0)
        oracle_front = brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
        entries = []
        for m in _reference_mappings(ctx.workload.snn, ctx.hw):
            ev = ctx.evaluate(m)
            entries.append(_Entry(
                assignment=m.assignment, tau=ev.tau, aging=ev.aging,
                lam=ev.lam, iteration=0,
            ))
        swept = extract_pareto(_as_archive(entries))
        got = [(p.tau, p.aging, p.mapping.assignment) for p in swept.points]
        want = [(p.tau, p.aging, p.mapping.assignment) for p in oracle_front.points]
        assert got == want


def test_pareto_guard_propagates():
    ctx_big_hw = _hw(8, tile_capacity=8)
    snn = _snn(8)
    wl = Workload(snn=snn, trains={c.id: SpikeTrain([0.1]) for c in snn.clusters})
    ctx = EvalContext(wl, ctx_big_hw, AgingParams(), PerfParams())
    with pytest.raises(GuardExceededError):
        brute_force_pareto(snn, ctx_big_hw, ctx)
    with pytest.raises(GuardExceededError):
        brute_force_optimum(snn, ctx_big_hw, ctx)


def test_pareto_refuses_nan_objectives(monkeypatch):
    # argmin would pick a NaN lambda; the table refuses it as extract_pareto does
    ctx = _ctx(3, 2, tile_capacity=2)
    monkeypatch.setattr(swarm_module, "combine_aging", lambda *args: math.nan)
    with pytest.raises(ValueError, match="NaN"):
        brute_force_optimum(ctx.workload.snn, ctx.hw, ctx)
    with pytest.raises(ValueError, match="NaN"):
        brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)


# Few distinct values, so that duplicate pairs, equal-tau groups and inf aging
# are common.
_TAUS = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1e3))
_AGINGS = st.one_of(st.sampled_from([0.0, 0.5, math.inf]), st.floats(0.0, 1e3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), _TAUS, _AGINGS), min_size=1, max_size=5,
                unique_by=lambda x: x[0]))
def test_pareto_of_a_given_table_matches_quadratic_filter(items):
    # The table stands in for the evaluator: canonical rows (i,) on a 1x10
    # mesh, whose orbit is {i, 9 - i}, with objectives no workload produces.
    hw = HardwareConfig(num_tiles=10, crossbar_dim=64, mesh=(10, 1),
                        device_profile=DeviceProfile(kind="diode_1D1R"))
    items.sort()
    tau, aging = (np.array([x[k] for x in items]) for k in (1, 2))
    table = (np.array([[i] for i, _, _ in items]), Evaluation(tau, aging, tau * 0.0))
    points = [(t, a, (m,)) for i, t, a in items for m in (i, 9 - i)]
    want = sorted(p for p in points
                  if not any(q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                             for q in points))
    front = brute_force_pareto(_snn(1), hw, None, table=table)
    assert [(p.tau, p.aging, p.mapping.assignment) for p in front.points] == want


# ---------------------------------------------------------------- scalar reference
# The oracle as it was before the objective table: the recursive lexicographic
# generator, ctx.evaluate per mapping, a strict-< argmin, and the quadratic
# any() filter over every mapping. The table must reproduce it exactly.


def _reference_mappings(snn, hw):
    num_clusters = len(snn.clusters)
    loads = [0] * hw.num_tiles
    assignment = [0] * num_clusters

    def rec(i):
        if i == num_clusters:
            yield Mapping(assignment)
            return
        for tile in range(hw.num_tiles):
            if loads[tile] < hw.tile_capacity:
                loads[tile] += 1
                assignment[i] = tile
                yield from rec(i + 1)
                loads[tile] -= 1

    return list(rec(0))


def _reference_optimum(mappings, evaluations):
    best = None
    for m, ev in zip(mappings, evaluations):
        if best is None or ev.lam < best[1].lam:
            best = (m, ev)
    return best


def _reference_pareto(mappings, evaluations):
    pts = [FrontPoint(mapping=m, tau=ev.tau, aging=ev.aging)
           for m, ev in zip(mappings, evaluations)]
    front = [
        p for p in pts
        if not any(q.tau <= p.tau and q.aging <= p.aging
                   and (q.tau < p.tau or q.aging < p.aging) for q in pts)
    ]
    front.sort(key=lambda p: (p.tau, p.aging, p.mapping.assignment))
    return ParetoFront(points=tuple(front))


def _orbit(assignment, group):
    """Every image of one assignment under group, the mesh's isometries from
    the timing tests' independent construction, _mesh_automorphisms(*hw.mesh)."""
    return {tuple(perm[list(assignment)].tolist()) for perm in group}


def _assert_matches_reference(workload, hw, perf=PerfParams()):
    snn = workload.snn
    ref_ctx = EvalContext(workload, hw, AgingParams(), perf)
    ctx = EvalContext(workload, hw, AgingParams(), perf)
    mappings = _reference_mappings(snn, hw)
    want = [ref_ctx.evaluate(m) for m in mappings]
    ref_map, ref_ev = _reference_optimum(mappings, want)
    ref_front = _reference_pareto(mappings, want)
    # The table holds the smallest member of each orbit under the mesh's
    # isometries, in lexicographic order, and evaluates nothing else.
    group = _mesh_automorphisms(*hw.mesh)
    canonical = [i for i, m in enumerate(mappings)
                 if m.assignment == min(_orbit(m.assignment, group))]
    # The default blocks hold every small instance whole; 16-cell blocks split
    # the objective table into many blocks.
    # The table goes through one evaluate_rows call, which splits it into
    # blocks, and the optimum's evaluation is read from it: evaluate is never
    # called.
    width = max(len(snn.resolved_edges), hw.num_tiles, len(snn.clusters))
    for block_cells in (swarm_module._BLOCK_CELLS, 16):
        step = max(1, block_cells // width)
        with patch.object(swarm_module, "_BLOCK_CELLS", block_cells), \
                patch.object(ctx, "evaluate", side_effect=AssertionError("evaluate called")), \
                patch.object(ctx, "evaluate_rows", wraps=ctx.evaluate_rows) as batches, \
                patch.object(ctx, "worst_tile_agings", wraps=ctx.worst_tile_agings) as blocks:
            table = _objective_table(snn, hw, ctx)
            rows, ev = table
            assert [len(c.args[0]) for c in batches.call_args_list] == [len(canonical)]
            assert [len(c.args[0]) for c in blocks.call_args_list] == [
                len(canonical[lo:lo + step]) for lo in range(0, len(canonical), step)]
            assert [tuple(r) for r in rows.tolist()] == [mappings[i].assignment
                                                         for i in canonical]
            assert all(c.dtype == np.float64 for c in ev)
            assert ev.tau.tolist() == [want[i].tau for i in canonical]
            assert ev.aging.tolist() == [want[i].aging for i in canonical]
            assert ev.lam.tolist() == [want[i].lam for i in canonical]

            for given in (None, table):
                opt = brute_force_optimum(snn, hw, ctx, table=given)
                assert opt.mapping == ref_map
                assert opt.evaluation == ref_ev
                assert brute_force_pareto(snn, hw, ctx, table=given) == ref_front


_MESHES = [(2, 2), (3, 1), (2, 3), (1, 2), (3, 3), (2, 1), (1, 3), (3, 2), (1, 1)]


@st.composite
def _instances(draw):
    width, height = draw(st.sampled_from(_MESHES))
    num_tiles = width * height
    # keep the scalar reference (quadratic in the mapping count) fast
    max_clusters = 6
    while num_tiles ** max_clusters > 1500:
        max_clusters -= 1
    num_clusters = draw(st.integers(1, max_clusters))
    capacity = draw(st.integers(-(-num_clusters // num_tiles), num_clusters))
    hw = HardwareConfig(
        num_tiles=num_tiles, crossbar_dim=64, mesh=(width, height),
        device_profile=DeviceProfile(kind="diode_1D1R"), tile_capacity=capacity,
    )
    ids = [f"c{i}" for i in range(num_clusters)]
    # one draw in four is silent: every tau and aging 0, so all lambdas tie
    silent = draw(st.sampled_from([False, False, False, True]))
    endpoint = st.sampled_from(ids + ["ghost"])  # "ghost" never resolves
    edges = [
        Edge(src, dst, 0 if silent else count)
        for src, dst, count in draw(st.lists(
            st.tuples(endpoint, endpoint, st.integers(0, 40)), min_size=1, max_size=8))
    ]
    grid = st.integers(0, 19).map(lambda k: k / 20.0)  # shared times overlap
    trains = {
        cid: SpikeTrain([] if silent else draw(st.lists(grid, max_size=5)))
        for cid in ids
    }
    snn = ClusteredSnn([Cluster(cid, 4, 8) for cid in ids], edges, 1.0)
    perf = PerfParams(
        spike_latency=draw(st.sampled_from([1e-6, 2.5e-6, 0.0])),
        hop_latency=draw(st.sampled_from([1e-7, 3e-6, 0.0])),
        tile_parallelism=draw(st.booleans()),
    )
    return Workload(snn=snn, trains=trains), hw, perf


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
def test_oracle_matches_scalar_reference(instance):
    workload, hw, perf = instance
    _assert_matches_reference(workload, hw, perf)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
def test_objective_table_keeps_one_row_per_orbit(instance):
    workload, hw, perf = instance
    ctx = EvalContext(workload, hw, AgingParams(), perf)
    ref_ctx = EvalContext(workload, hw, AgingParams(), perf)
    rows, ev = _objective_table(workload.snn, hw, ctx)
    index = {tuple(r): i for i, r in enumerate(rows.tolist())}
    assert len(index) == len(rows)
    group = _mesh_automorphisms(*hw.mesh)
    for m in _reference_mappings(workload.snn, hw):
        orbit = _orbit(m.assignment, group)
        (canonical,) = orbit & index.keys()  # exactly one canonical row
        assert canonical == min(orbit)
        i = index[canonical]
        assert ref_ctx.evaluate(m) == (ev.tau[i], ev.aging[i], ev.lam[i])


# 1x1, 1xT, Tx1, rectangular and square meshes
_ENUMERATION_MESHES = [(1, 1), (1, 2), (2, 1), (1, 3), (1, 5), (4, 1), (7, 1), (2, 2), (3, 2),
                       (2, 3), (4, 2), (3, 3), (2, 4), (4, 4)]


@st.composite
def _enumerations(draw):
    width, height = draw(st.sampled_from(_ENUMERATION_MESHES))
    num_tiles = width * height
    capacity = draw(st.integers(1, 3))
    # up to the total capacity, wherever the reference generator stays fast
    num_clusters = draw(st.sampled_from([
        c for c in range(1, num_tiles * capacity + 1)
        if count_feasible_mappings(c, num_tiles, capacity) <= 4000]))
    hw = HardwareConfig(num_tiles=num_tiles, crossbar_dim=64, mesh=(width, height),
                        device_profile=DeviceProfile(kind="diode_1D1R"), tile_capacity=capacity)
    return _snn(num_clusters), hw


def _row_of_tiles(num_tiles, capacity):
    return HardwareConfig(num_tiles=num_tiles, crossbar_dim=64, mesh=(num_tiles, 1),
                          device_profile=DeviceProfile(kind="diode_1D1R"), tile_capacity=capacity)


@settings(max_examples=150, deadline=None)
@given(_enumerations())
# Where the rows' type widens: tile indices past uint8 at 257 tiles, and
# loads past uint8 at 256 clusters on one tile. A capacity past uint8, or past
# every NumPy integer, leaves the loads of 3 clusters in uint8.
@example((_snn(2), _row_of_tiles(255, 1)))
@example((_snn(2), _row_of_tiles(256, 1)))
@example((_snn(2), _row_of_tiles(257, 1)))
@example((_snn(255), _row_of_tiles(1, 256)))
@example((_snn(256), _row_of_tiles(1, 256)))
@example((_snn(3), _row_of_tiles(2, 256)))
@example((_snn(3), _row_of_tiles(2, 2 ** 64)))
def test_canonical_rows_are_the_orbit_minima_of_the_feasible_set(instance):
    # The reference is two passes: every feasible row in lexicographic order,
    # then the smallest member of each orbit under the independently built
    # isometries, kept in that order.
    snn, hw = instance
    group = _mesh_automorphisms(*hw.mesh)
    want = [m.assignment for m in _reference_mappings(snn, hw)
            if m.assignment == min(_orbit(m.assignment, group))]
    rows = _canonical_rows(snn, hw)
    num_clusters = len(snn.clusters)
    # a load never passes the cluster count
    loads = min(hw.tile_capacity, num_clusters)
    assert (rows.dtype == np.min_scalar_type(max(hw.num_tiles - 1, loads))
            and rows.dtype.kind == "u" and rows.shape == (len(want), num_clusters))
    assert [tuple(r) for r in rows.tolist()] == want


def _ring_of_seven(num_tiles, mesh, capacity, hop_latency, seed=5):
    """Seven clusters on a ring, with random edge spike counts and trains."""
    rng = np.random.default_rng(seed)
    ids = list("abcdefg")
    edges = [Edge(ids[i], ids[(i + 1) % 7], int(rng.integers(60, 140))) for i in range(7)]
    trains = {c: SpikeTrain(np.sort(rng.integers(0, 400, int(rng.integers(60, 140))) / 400.0))
              for c in ids}
    snn = ClusteredSnn([Cluster(c, 4, 8) for c in ids], edges, 1.0)
    hw = HardwareConfig(num_tiles=num_tiles, crossbar_dim=64, mesh=mesh,
                        device_profile=DeviceProfile(kind="diode_1D1R"), tile_capacity=capacity)
    return Workload(snn=snn, trains=trains), hw, PerfParams(hop_latency=hop_latency)


@pytest.mark.parametrize("num_tiles, mesh, capacity, hop_latency, count, points, pairs, digest", [
    # every tile hosts one cluster, so aging is the same everywhere
    (9, (3, 3), 1, 1e-7, 181_440, 96, 1,
     "bfd835419699c3cbe9b2f1e664f7451a0a4c1940814e012b25098ee8165dd317"),
    # no hop latency: tau is the busiest tile's load, so ties are common
    (6, (3, 2), 2, 0.0, 128_520, 3600, 5,
     "2c53fcd87dd8fbb19f07b16909f9a45e7166509ba678789673d2b68caa0f912a"),
], ids=["3x3-capacity-1", "3x2-capacity-2-no-hops"])
def test_oracle_outputs_at_scale_are_pinned(num_tiles, mesh, capacity, hop_latency, count,
                                            points, pairs, digest):
    # Instances far past the scalar reference's reach: the optimum and the
    # front, bit for bit, must not move when the oracle's code does.
    workload, hw, perf = _ring_of_seven(num_tiles, mesh, capacity, hop_latency)
    snn = workload.snn
    ctx = EvalContext(workload, hw, AgingParams(), perf)
    assert count_feasible_mappings(len(snn.clusters), num_tiles, capacity) == count
    table = _objective_table(snn, hw, ctx)
    opt = brute_force_optimum(snn, hw, ctx, table=table)
    front = brute_force_pareto(snn, hw, ctx, table=table)
    assert len(front.points) == points
    assert len({(p.tau, p.aging) for p in front.points}) == pairs
    h = hashlib.sha256()
    for m, tau, aging in [(opt.mapping, opt.evaluation.tau, opt.evaluation.aging)] + [
            (p.mapping, p.tau, p.aging) for p in front.points]:
        h.update(f"{m.assignment} {tau.hex()} {aging.hex()}\n".encode())
    assert h.hexdigest() == digest


def test_many_clusters_on_one_tile():
    # 70 clusters fit one tile within the guard: one mapping, whose hosted set
    # needs a 70-bit code.
    snn = ClusteredSnn([Cluster(f"c{i}", 4, 8) for i in range(70)],
                       [Edge(f"c{i}", f"c{i + 1}", 1) for i in range(69)], 1.0)
    trains = {c.id: SpikeTrain([i / 100.0]) for i, c in enumerate(snn.clusters)}
    workload = Workload(snn=snn, trains=trains)
    hw = _hw(1, tile_capacity=70)
    assert count_feasible_mappings(70, 1, 70) == 1
    _assert_matches_reference(workload, hw)

    # 70 clusters take two mask words: {c0} on tile 1 must not read as the empty set
    ctx = EvalContext(workload, _hw(2, tile_capacity=70), AgingParams(), PerfParams())
    looked_up = []

    def recording(members, *args):
        looked_up.append(frozenset(members))
        return hosted_set_mechanism_agings(members, *args)

    rows = np.array([[1] + [0] * 69, [0] * 70])
    with patch.object(swarm_module, "hosted_set_mechanism_agings", recording):
        got = ctx.worst_tile_agings(rows).tolist()
    rest, everything = frozenset(range(1, 70)), frozenset(range(70))
    # each set at most once; the empty tile 1 of row 1 is no call
    assert len(looked_up) == len(set(looked_up))
    assert set(looked_up) <= {rest, everything, frozenset({0})}

    def aging(members):
        mech = hosted_set_mechanism_agings(members, workload, ctx.hw, ctx.aging_params)
        return combine_aging(*mech, ctx.aging_params.tddb.beta)

    assert got == [max(aging({0}), aging(rest)), aging(everything)]
    # with every bound inf nothing is skipped: {c0} itself goes to the kernel
    looked_up.clear()
    ctx = EvalContext(workload, _hw(2, tile_capacity=70), AgingParams(), PerfParams())
    with patch.object(swarm_module, "hosted_set_mechanism_agings", recording), \
            patch.object(swarm_module, "hosted_set_aging_bounds",
                         lambda spikes, *args: np.full(len(spikes), math.inf)):
        assert ctx.worst_tile_agings(rows).tolist() == got
    assert sorted(looked_up, key=len) == [frozenset({0}), rest, everything]


def test_tau_past_int64_stays_exact():
    # spike counts whose hop products overflow int64 fall back to Python ints
    snn = ClusteredSnn([Cluster(x, 4, 8) for x in "abc"],
                       [Edge("a", "b", 2 ** 62), Edge("b", "c", 2 ** 62 + 1)], 1.0)
    trains = {x: SpikeTrain([0.5]) for x in "abc"}
    _assert_matches_reference(Workload(snn=snn, trains=trains), _hw(3, tile_capacity=2))


def test_tile_aging_is_combined_kernel_once_per_set(monkeypatch):
    # 4 clusters on 3 tiles of capacity 3: every row leaves a tile empty.
    ctx = _ctx(4, 3, tile_capacity=3, seed=3)
    calls = []

    def counting(members, *args):
        calls.append(frozenset(members))
        return hosted_set_mechanism_agings(members, *args)

    monkeypatch.setattr(swarm_module, "hosted_set_mechanism_agings", counting)
    beta = ctx.aging_params.tddb.beta

    def aging(members):
        return combine_aging(
            *hosted_set_mechanism_agings(members, ctx.workload, ctx.hw, ctx.aging_params), beta)

    rows = np.array([[0, 2, 2, 2], [1, 1, 0, 0], [0, 2, 2, 2]])
    got = ctx.evaluate_rows(rows).aging.tolist()
    # at most once per distinct non-empty set
    assert len(calls) == len(set(calls))
    assert set(calls) <= {frozenset({0}), frozenset({2, 3}), frozenset({0, 1}),
                          frozenset({1, 2, 3})}
    assert got == [max(aging({0}), aging({1, 2, 3})), max(aging({2, 3}), aging({0, 1})),
                   max(aging({0}), aging({1, 2, 3}))]
    first = list(calls)
    assert ctx.evaluate_rows(rows).aging.tolist() == got
    assert ctx.evaluate(Mapping([1, 1, 0, 0])).aging == got[1]
    assert calls == first  # a batch already evaluated reaches the kernel no more
    # the oracle reads the same cache: each of the 14 non-empty sets of at most
    # 3 clusters is computed at most once, and the empty set never
    brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
    assert len(calls) == len(set(calls)) <= 14
    assert frozenset() not in calls and max(map(len, calls)) <= 3
