"""Tests for the brute-force enumeration oracle."""

import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wearmap.oracle as oracle_module
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
    _objective_table,
    brute_force_optimum,
    brute_force_pareto,
    count_feasible_mappings,
    enumerate_mappings,
)
from wearmap.perf import PerfParams
from wearmap.swarm import (
    ArchiveEntry,
    EvalContext,
    FrontPoint,
    InfeasibleError,
    ParetoFront,
    PsoConfig,
    extract_pareto,
    optimize,
)


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
        seen = [m.assignment for m in enumerate_mappings(snn, hw)]
        assert len(seen) == count_feasible_mappings(n_c, n_t, cap)
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        for a in seen:
            assert mapping_violations(Mapping(a), snn, hw) == []


def test_enumerate_guard_is_eager():
    # 8 clusters on 8 tiles with capacity 8: 8^8 > 1e6. The guard must fire at
    # call time, before any assignment is consumed.
    with pytest.raises(GuardExceededError) as err:
        enumerate_mappings(_snn(8), _hw(8, tile_capacity=8))
    assert err.value.count == 8 ** 8
    assert str(8 ** 8) in str(err.value)
    assert err.value.limit == ENUMERATION_GUARD


def test_enumerate_infeasible():
    with pytest.raises(InfeasibleError):
        enumerate_mappings(_snn(3), _hw(2, tile_capacity=1))


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
    # Dual route: the quadratic dominance filter and the sweep-based
    # extract_pareto must agree on the full enumeration of random instances.
    for seed in range(6):
        ctx = _ctx(4, 2, tile_capacity=2, seed=seed, rate=80.0)
        oracle_front = brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
        entries = []
        for m in enumerate_mappings(ctx.workload.snn, ctx.hw):
            ev = ctx.evaluate(m)
            entries.append(ArchiveEntry(
                assignment=m.assignment, tau=ev.tau, aging=ev.aging,
                lam=ev.lam, iteration=0,
            ))
        swept = extract_pareto(entries)
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


def _reference_optimum(mappings, ctx):
    best = None
    for m in mappings:
        ev = ctx.evaluate(m)
        if best is None or ev.lam < best[1].lam:
            best = (m, ev)
    return best


def _reference_pareto(mappings, ctx):
    pts = [FrontPoint(mapping=m, tau=ev.tau, aging=ev.aging)
           for m in mappings for ev in (ctx.evaluate(m),)]
    front = [
        p for p in pts
        if not any(q.tau <= p.tau and q.aging <= p.aging
                   and (q.tau < p.tau or q.aging < p.aging) for q in pts)
    ]
    front.sort(key=lambda p: (p.tau, p.aging, p.mapping.assignment))
    return ParetoFront(points=tuple(front))


def _assert_matches_reference(workload, hw, perf=PerfParams()):
    snn = workload.snn
    ref_ctx = EvalContext(workload, hw, AgingParams(), perf)
    ctx = EvalContext(workload, hw, AgingParams(), perf)
    mappings = _reference_mappings(snn, hw)
    assert [m.assignment for m in enumerate_mappings(snn, hw)] == [
        m.assignment for m in mappings]

    want = [ref_ctx.evaluate(m) for m in mappings]
    ref_map, ref_ev = _reference_optimum(mappings, ref_ctx)
    ref_front = _reference_pareto(mappings, ref_ctx)
    # The default blocks hold every small instance whole; 16-cell blocks split
    # both the objective table and the dominance filter into many blocks.
    # The table goes through evaluate_rows, one call per block, and the
    # optimum's evaluation is read from it: evaluate is never called.
    for block_cells in (oracle_module._BLOCK_CELLS, 16):
        step = max(1, block_cells // hw.num_tiles)
        with patch.object(oracle_module, "_BLOCK_CELLS", block_cells), \
                patch.object(ctx, "evaluate", side_effect=AssertionError("evaluate called")), \
                patch.object(ctx, "evaluate_rows", wraps=ctx.evaluate_rows) as batches:
            rows, ev = _objective_table(snn, hw, ctx)
            assert [len(c.args[0]) for c in batches.call_args_list] == [
                len(mappings[lo:lo + step]) for lo in range(0, len(mappings), step)]
            assert [tuple(r) for r in rows.tolist()] == [m.assignment for m in mappings]
            assert all(c.dtype == np.float64 for c in ev)
            assert ev.tau.tolist() == [e.tau for e in want]
            assert ev.aging.tolist() == [e.aging for e in want]
            assert ev.lam.tolist() == [e.lam for e in want]

            opt = brute_force_optimum(snn, hw, ctx)
            assert opt.mapping == ref_map
            assert opt.evaluation == ref_ev
            assert brute_force_pareto(snn, hw, ctx) == ref_front


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
    real = ctx.tile_aging

    def recording(members):
        looked_up.append(members)
        return real(members)

    ctx.tile_aging = recording
    rows = np.array([[1] + [0] * 69, [0] * 70])
    got = ctx.worst_tile_agings(rows).tolist()
    rest, everything = frozenset(range(1, 70)), frozenset(range(70))
    assert sorted(looked_up, key=len) == [frozenset({0}), rest, everything]
    assert got == [max(real(frozenset({0})), real(rest)), real(everything)]


def test_tau_past_int64_stays_exact():
    # spike counts whose hop products overflow int64 fall back to Python ints
    snn = ClusteredSnn([Cluster(x, 4, 8) for x in "abc"],
                       [Edge("a", "b", 2 ** 62), Edge("b", "c", 2 ** 62 + 1)], 1.0)
    trains = {x: SpikeTrain([0.5]) for x in "abc"}
    _assert_matches_reference(Workload(snn=snn, trains=trains), _hw(3, tile_capacity=2))


def test_tile_aging_is_combined_kernel_once_per_set(monkeypatch):
    ctx = _ctx(4, 2, tile_capacity=3, seed=3)
    calls = []

    def counting(members, *args):
        calls.append(members)
        return hosted_set_mechanism_agings(members, *args)

    monkeypatch.setattr(swarm_module, "hosted_set_mechanism_agings", counting)
    beta = ctx.aging_params.tddb.beta
    for s in (frozenset({0}), frozenset({1, 3}), frozenset({0, 1, 2})):
        want = combine_aging(
            *hosted_set_mechanism_agings(s, ctx.workload, ctx.hw, ctx.aging_params), beta)
        assert ctx.tile_aging(s) == want
        assert ctx.tile_aging(s) == want
    assert calls == [frozenset({0}), frozenset({1, 3}), frozenset({0, 1, 2})]
    # the oracle and evaluate read the same cache: each set is computed once
    brute_force_pareto(ctx.workload.snn, ctx.hw, ctx)
    ctx.evaluate(Mapping([0, 0, 1, 1]))
    assert len(calls) == len(set(calls))
