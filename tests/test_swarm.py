"""Tests for the constrained binary PSO mapper and Pareto selection.

Brute-force references are computed inline over tiny search spaces so they do
not depend on the optimizer itself.
"""

import hashlib
import itertools
import math
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wearmap.swarm as swarm_module
from wearmap.aging import (
    AgingParams,
    NbtiParams,
    TddbParams,
    combine_aging,
    evaluate_hardware_aging,
    hosted_set_mechanism_agings,
)
from wearmap.config import load_run_config, parse_run_config
from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
    SpikeTrain,
    Workload,
    WorkloadShape,
    generate_poisson_workload,
    mapping_violations,
)
from wearmap.perf import PerfParams, execution_time
from wearmap.swarm import (
    Archive,
    ArchiveEntry,
    EvalContext,
    Evaluation,
    FrontPoint,
    InfeasibleError,
    ParetoFront,
    PsoConfig,
    SwarmState,
    binarize,
    extract_pareto,
    initialize_swarm,
    optimize,
    repair,
    repair_rows,
    select_final,
    step_swarm,
)
from wearmap.swarm import _archive, _corners, _ring_orders, _ring_walk, _sigmoid, _update


def _hw(num_tiles=4, tile_capacity=1, mesh=None):
    return HardwareConfig(
        num_tiles=num_tiles,
        crossbar_dim=64,
        device_profile=DeviceProfile(kind="diode_1D1R"),
        tile_capacity=tile_capacity,
        mesh=mesh,
    )


def _ctx(num_clusters=3, num_tiles=3, tile_capacity=1, seed=7, rate=50.0,
         objective="lambda"):
    wl = generate_poisson_workload(
        WorkloadShape(num_clusters=num_clusters, kind="chain"), rate, 1.0, seed
    )
    hw = _hw(num_tiles=num_tiles, tile_capacity=tile_capacity)
    return EvalContext(wl, hw, AgingParams(), PerfParams(), objective=objective)


def _all_feasible(num_clusters, num_tiles, capacity):
    for assign in itertools.product(range(num_tiles), repeat=num_clusters):
        loads = [0] * num_tiles
        for t in assign:
            loads[t] += 1
        if max(loads) <= capacity:
            yield assign


# ---------------------------------------------------------------- config


def test_pso_config_defaults():
    cfg = PsoConfig()
    assert cfg.phi1 == 2.0 and cfg.phi2 == 2.0
    assert cfg.v_clamp == 4.0
    assert cfg.n_particles is None and cfg.max_iterations is None


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(n_particles=1)
    with pytest.raises(ValueError):
        PsoConfig(phi1=-0.1)
    with pytest.raises(ValueError):
        PsoConfig(v_clamp=0.0)
    with pytest.raises(ValueError):
        PsoConfig(max_iterations=-1)
    for field in ("phi1", "phi2", "v_clamp"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                PsoConfig(**{field: value})


# ---------------------------------------------------------------- evaluation


def test_fitness_composes_module_oracles():
    ctx = _ctx(num_clusters=2, num_tiles=2)
    m = Mapping([0, 1])
    ev = ctx.evaluate(m)
    tau = execution_time(ctx.workload.snn, m, ctx.hw, ctx.perf_params)
    aging = evaluate_hardware_aging(ctx.workload, m, ctx.hw, ctx.aging_params).hardware
    assert ev.tau == tau
    assert ev.aging == aging
    assert ev.lam == tau * aging


def test_fitness_zero_spikes_zero_lambda():
    snn = ClusteredSnn(
        [Cluster("a", 4, 8), Cluster("b", 4, 8)], [], 1.0
    )
    wl = Workload(snn=snn, trains={"a": SpikeTrain([]), "b": SpikeTrain([])})
    ctx = EvalContext(wl, _hw(num_tiles=2), AgingParams(), PerfParams())
    ev = ctx.evaluate(Mapping([0, 1]))
    assert ev.aging == 0.0
    assert ev.lam == 0.0


def test_fitness_halved_aging_halves_lambda():
    # Single active mechanism so the combination is exactly linear in 1/a.
    base = AgingParams(nbti=NbtiParams(g0=0.0))
    doubled = AgingParams(tddb=TddbParams(a=2e7), nbti=NbtiParams(g0=0.0))
    wl = generate_poisson_workload(WorkloadShape(2, kind="chain"), 40.0, 1.0, 3)
    hw = _hw(num_tiles=2)
    ev1 = EvalContext(wl, hw, base, PerfParams()).evaluate(Mapping([0, 1]))
    ev2 = EvalContext(wl, hw, doubled, PerfParams()).evaluate(Mapping([0, 1]))
    assert ev1.tau == ev2.tau
    assert math.isclose(ev2.aging, ev1.aging / 2.0, rel_tol=1e-12)
    assert math.isclose(ev2.lam, ev1.lam / 2.0, rel_tol=1e-12)


def test_evaluate_is_repeatable():
    ctx = _ctx()
    first = ctx.evaluate(Mapping([0, 1, 2]))
    again = ctx.evaluate(Mapping([0, 1, 2]))
    assert first == again  # nothing is stored per mapping; the value is the same


def _per_row(columns):
    """The Evaluation of each row of evaluate_rows' float64 columns."""
    assert all(c.dtype == np.float64 and c.shape == columns.tau.shape for c in columns)
    return [Evaluation(*values) for values in zip(*(c.tolist() for c in columns))]


def test_evaluate_rows_matches_evaluate():
    ctx = _ctx(num_clusters=3, num_tiles=3, tile_capacity=2)
    ref = _ctx(num_clusters=3, num_tiles=3, tile_capacity=2)
    rows = np.array([[0, 1, 2], [1, 1, 0], [0, 1, 2], [2, 0, 0]])
    got = _per_row(ctx.evaluate_rows(rows))
    assert got == [ref.evaluate(Mapping(r)) for r in rows.tolist()]
    assert got[0] == got[2]  # a row repeated in one batch
    assert ctx.evaluate(Mapping([1, 1, 0])) == got[1]
    assert _per_row(ctx.evaluate_rows(rows[1:2])) == [got[1]]
    empty = ctx.evaluate_rows(np.zeros((0, 3), dtype=np.int64))
    assert [(c.dtype, c.shape) for c in empty] == [(np.float64, (0,))] * 3


def _reference_worst_tile_aging(ctx, assignment, kernel):
    """The per-row dict-of-sets body that worst_tile_agings replaced: the
    kernel and combine_aging on every non-empty hosted set."""
    hosted = {}
    for ci, tile in enumerate(assignment):
        hosted.setdefault(tile, set()).add(ci)
    aging = 0.0
    for members in hosted.values():
        a = combine_aging(*kernel(frozenset(members), ctx.workload, ctx.hw, ctx.aging_params),
                          ctx.aging_params.tddb.beta)
        if a > aging:
            aging = a
    return aging


def _fake_kernel(members, *args):
    """A distinct TDDB aging per set, largest for a lone cluster, so that a set
    read for another one changes the result; an empty set raises. A lone
    mechanism passes through combine_aging exactly."""
    return (1.0 / (len(members) + math.fsum(math.sin(c + 1.0) for c in members) ** 2 / 1e3),
            0.0, 0.0)


def _no_bounds(spikes, *args):
    """hosted_set_aging_bounds for a kernel without one: inf, never skipped."""
    return np.full(len(spikes), math.inf)


@st.composite
def _assignment_batches(draw):
    num_clusters = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 130]),
                                  st.integers(1, 130)))
    num_tiles = draw(st.one_of(st.integers(1, 8), st.integers(1, 140)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["spread", "one_tile", "few_tiles", "high_apart"]))
        if kind == "one_tile":  # every cluster on one tile, the others empty
            row = np.full(num_clusters, rng.integers(num_tiles))
        elif kind == "few_tiles":
            row = rng.choice(rng.integers(num_tiles, size=2), size=num_clusters)
        else:
            row = rng.integers(num_tiles, size=num_clusters)
            if kind == "high_apart":  # sets that differ only past the first word
                row[:64] = rng.integers(num_tiles)
        rows.append(row)
    rows = np.array(rows, dtype=np.int64).reshape(-1, num_clusters)
    return num_clusters, num_tiles, rows, rng.permutation(num_tiles)


# One row per cluster next to a word boundary, alone on tile 1.
_BOUNDARY = [0, 1, 62, 63, 64, 65, 127, 128, 129]
_ALONE_ROWS = np.zeros((len(_BOUNDARY), 130), dtype=np.int64)
_ALONE_ROWS[np.arange(len(_BOUNDARY)), _BOUNDARY] = 1


@settings(max_examples=200, deadline=None)
@given(_assignment_batches())
@example((130, 2, _ALONE_ROWS, np.array([1, 0])))
def test_worst_tile_agings_equals_dict_of_sets_reference(batch):
    num_clusters, num_tiles, rows, perm = batch
    wl = generate_poisson_workload(
        WorkloadShape(num_clusters=num_clusters, kind="chain"), 5.0, 1.0, 0)
    hw = _hw(num_tiles=num_tiles, tile_capacity=num_clusters)
    # The fake kernel has no bound, so it runs with every bound patched to inf:
    # then no cell is skipped, and the lookup alone is tested.
    for kernel, bounds in ((hosted_set_mechanism_agings, swarm_module.hosted_set_aging_bounds),
                           (_fake_kernel, _no_bounds)):
        ctx = EvalContext(wl, hw, AgingParams(), PerfParams())
        calls = []

        def counting(members, *args):
            calls.append(frozenset(members))
            return kernel(members, *args)

        with patch.object(swarm_module, "hosted_set_mechanism_agings", counting), \
                patch.object(swarm_module, "hosted_set_aging_bounds", bounds):
            got = ctx.worst_tile_agings(rows)
            assert got.shape == (rows.shape[0],) and got.dtype == np.float64
            assert got.tolist() == [_reference_worst_tile_aging(ctx, r, kernel)
                                    for r in rows.tolist()]
            # aging depends on the partition only, not on which tile hosts which set
            assert ctx.worst_tile_agings(perm[rows]).tolist() == got.tolist()
        # each set at most once to the kernel, and never the empty set
        assert len(calls) == len(set(calls)) and frozenset() not in calls


def _counting(calls, kernel=hosted_set_mechanism_agings):
    """kernel, recording each member set it is called on."""
    def counting(members, *args):
        calls.append(frozenset(members))
        return kernel(members, *args)
    return counting


def _hosted_sets(rows):
    """The distinct non-empty hosted sets of an (n, C) assignment array."""
    sets = set()
    for row in rows.tolist():
        hosted = {}
        for ci, tile in enumerate(row):
            hosted.setdefault(tile, set()).add(ci)
        sets |= {frozenset(m) for m in hosted.values()}
    return sets


def test_worst_tile_agings_skips_sets_that_cannot_be_the_worst():
    # 48 clusters on a 4x4 mesh of capacity 4: nearly every hosted set of a
    # batch is new. Each later batch swaps two clusters' tiles in every row of
    # the one before, so it meets sets that an earlier batch only bounded.
    rng = np.random.default_rng(11)
    rates = np.exp(rng.uniform(np.log(5.0), np.log(220.0), 48))
    wl = generate_poisson_workload(
        WorkloadShape(48, 16, 48, kind="random", edge_prob=3 / 48), rates, 1.0, 0)
    hw = _hw(num_tiles=16, tile_capacity=4, mesh=(4, 4))
    batches = [repair_rows(rng.integers(0, 2, (24, 48, 16)), rng.random((24, 48, 16)), hw)]
    for _ in range(3):
        rows = batches[-1].copy()
        for row in rows:
            i, j = rng.choice(48, 2, replace=False)
            row[[i, j]] = row[[j, i]]
        batches.append(rows)
    calls, every = [], []
    ctx = EvalContext(wl, hw, AgingParams(), PerfParams())
    with patch.object(swarm_module, "hosted_set_mechanism_agings", _counting(calls)):
        got = [ctx.worst_tile_agings(rows).tolist() for rows in batches]
    # the exhaustive reference: with every bound inf, no set is skipped
    ref = EvalContext(wl, hw, AgingParams(), PerfParams())
    with patch.object(swarm_module, "hosted_set_mechanism_agings", _counting(every)), \
            patch.object(swarm_module, "hosted_set_aging_bounds", _no_bounds):
        assert [ref.worst_tile_agings(rows).tolist() for rows in batches] == got
    sets = _hosted_sets(np.concatenate(batches))
    assert len(every) == len(set(every)) and set(every) == sets
    assert len(calls) == len(set(calls)) and set(calls) < sets
    assert len(calls) < len(sets) / 2


def test_worst_tile_agings_nan_reaches_its_row_and_skips_nothing_there():
    # combine_aging (patched) gives NaN for {c0}: the row's worst is NaN, as
    # the max over its tiles is. With every bound inf, {c0} on tile 0 is the
    # row's first pick; the NaN it yields skips none of the row's other sets.
    ctx = _ctx(num_clusters=4, num_tiles=3, tile_capacity=2)
    calls = []

    def kernel(members, *args):
        return (math.nan, 0.0, 0.0) if set(members) == {0} else \
            hosted_set_mechanism_agings(members, *args)

    with patch.object(swarm_module, "hosted_set_mechanism_agings", _counting(calls, kernel)), \
            patch.object(swarm_module, "combine_aging",
                         lambda *m: math.nan if math.isnan(m[0]) else combine_aging(*m)), \
            patch.object(swarm_module, "hosted_set_aging_bounds", _no_bounds):
        got = ctx.worst_tile_agings(np.array([[0, 1, 1, 2], [1, 1, 2, 2]]))
    assert math.isnan(got[0]) and not math.isnan(got[1])
    assert sorted(calls, key=sorted) == sorted(_hosted_sets(np.array([[0, 1, 1, 2],
                                                                      [1, 1, 2, 2]])),
                                               key=sorted)


def test_a_spike_past_the_window_is_refused_on_a_set_the_kernel_skips():
    # The bounds assume every spike lies within the window, which the kernel
    # checks. Cluster a spikes twice, once past the window, and b 400 times:
    # on separate tiles a's set is below b's and never reaches the kernel, so
    # its bound refuses it instead.
    snn = ClusteredSnn([Cluster("a", 4, 8), Cluster("b", 4, 8)], [], 1.0)
    trains = {"a": SpikeTrain([0.5, 2.0]), "b": SpikeTrain(np.linspace(0.01, 0.99, 400))}
    ctx = EvalContext(Workload(snn=snn, trains=trains), _hw(num_tiles=2), AgingParams(),
                      PerfParams())
    with pytest.raises(ValueError, match=r"\[0, window\)"):
        ctx.evaluate(Mapping([0, 1]))


def test_fitness_invalid_mapping_raises():
    ctx = _ctx(num_clusters=3, num_tiles=3, tile_capacity=1)
    with pytest.raises(MappingConstraintError):
        ctx.evaluate(Mapping([0, 0, 1]))


def test_context_rejects_unknown_objective():
    wl = generate_poisson_workload(WorkloadShape(2), 10.0, 1.0, 0)
    with pytest.raises(ValueError):
        EvalContext(wl, _hw(num_tiles=2), AgingParams(), PerfParams(),
                    objective="latency")


# ---------------------------------------------------------------- binarize


def test_binarize_shape_and_values():
    rng = np.random.default_rng(0)
    v = np.zeros((3, 4))
    out = binarize(np.zeros((3, 4)), v, rng)
    assert out.shape == (3, 4)
    assert set(np.unique(out)) <= {0, 1}


def test_binarize_saturated_velocities():
    rng = np.random.default_rng(0)
    high = binarize(np.zeros(100), np.full(100, 60.0), rng)
    low = binarize(np.zeros(100), np.full(100, -60.0), rng)
    assert np.all(high == 0)  # sigmoid ~ 1: always below the draw threshold
    assert np.all(low == 1)
    # Extreme magnitudes must not overflow.
    assert np.all(binarize(np.zeros(4), np.array([-1e4, -745.0, 745.0, 1e4]), rng)
                  == np.array([1, 1, 0, 0]))


def test_binarize_probability_matches_sigmoid():
    rng = np.random.default_rng(123)
    n = 100_000
    for v in (-1.0, 0.0, 1.0):
        out = binarize(np.zeros(n), np.full(n, v), rng)
        p_zero = float(np.mean(out == 0))
        want = 1.0 / (1.0 + math.exp(-v))
        assert abs(p_zero - want) < 0.01


def test_binarize_deterministic_for_seed():
    a = binarize(np.zeros(50), np.linspace(-2, 2, 50), np.random.default_rng(9))
    b = binarize(np.zeros(50), np.linspace(-2, 2, 50), np.random.default_rng(9))
    assert np.array_equal(a, b)


def _masked_sigmoid(v):
    """The sigmoid as it was first written: each sign through its own masked
    exp, so that exp never overflows."""
    out = np.empty_like(v)
    pos = v >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


_MIN_NORMAL = np.finfo(np.float64).tiny
_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, _MIN_NORMAL, -_MIN_NORMAL,
                  _MIN_NORMAL / 3, -_MIN_NORMAL / 3, 4.0, -4.0, 36.7, -36.7,
                  708.4, -708.4, 745.1, -745.1, 746.0, -746.0, 1e300, -1e300,
                  np.finfo(np.float64).max, -np.finfo(np.float64).max]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_SIGMOID_EDGES),
                          st.floats(-800.0, 800.0)), min_size=1, max_size=40))
@example(_SIGMOID_EDGES)
def test_sigmoid_bit_equal_to_masked_reference(values):
    # +-0, subnormals, +-v_clamp and magnitudes where exp underflows included
    v = np.array(values, dtype=np.float64)
    got = _sigmoid(v)
    assert got.dtype == np.float64 and got.shape == v.shape
    assert np.array_equal(got.view(np.uint64), _masked_sigmoid(v).view(np.uint64))


def test_step_draws_bits_like_binarize(monkeypatch):
    # The step draws its bits from the one sigmoid it also hands repair as the
    # preference: the same bits binarize draws from the same stream.
    ctx = _ctx(num_clusters=3, num_tiles=3)
    cfg = PsoConfig(n_particles=5, max_iterations=1, seed=4, phi1=0.0, phi2=0.0)
    state = initialize_swarm(cfg, ctx)
    state.velocities = np.random.default_rng(1).normal(0.0, 3.0, state.velocities.shape)
    state.rng = np.random.default_rng(2)
    seen = []

    def recording(bits, pref, hw):
        seen.append((bits, pref))
        return repair_rows(bits, pref, hw)

    monkeypatch.setattr(swarm_module, "repair_rows", recording)
    step_swarm(state, cfg, ctx)
    probe = np.random.default_rng(2)
    probe.random(state.positions.shape)  # the step's r1 and r2 come first
    probe.random(state.positions.shape)
    vmat = state.velocities.reshape(5, 3, 3)
    (bits, pref), = seen
    assert np.array_equal(bits, binarize(np.zeros_like(vmat), vmat, probe))
    assert np.array_equal(pref, _sigmoid(vmat))


# ---------------------------------------------------------------- repair


def test_repair_feasible_unchanged():
    hw = _hw(num_tiles=3, tile_capacity=1)
    binary = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = repair(binary, hw, np.random.default_rng(0))
    assert m.assignment == (1, 0, 2)


def test_repair_all_zeros_two_by_two():
    hw = _hw(num_tiles=2, tile_capacity=1)
    m = repair(np.zeros((2, 2), dtype=int), hw, np.random.default_rng(0))
    assert m.assignment == (0, 1)
    assert mapping_violations(m, _snn_of(2), hw) == []


def _snn_of(n):
    return ClusteredSnn([Cluster(f"c{i}", 4, 8) for i in range(n)], [], 1.0)


def test_repair_multi_one_row_uses_pref():
    hw = _hw(num_tiles=3, tile_capacity=2)
    binary = np.array([[1, 0, 1], [0, 1, 0]])
    pref = np.array([[0.2, 0.9, 0.7], [0.1, 0.8, 0.2]])
    m = repair(binary, hw, np.random.default_rng(0), pref=pref)
    # Row 0 has two ones: the single one lands at the highest-pref column.
    assert m.assignment == (1, 1)


def test_repair_pref_ties_take_lowest_column():
    hw = _hw(num_tiles=3, tile_capacity=2)
    binary = np.array([[1, 0, 1], [0, 0, 0]])
    pref = np.array([[0.5, 0.1, 0.5], [0.3, 0.3, 0.3]])
    m = repair(binary, hw, np.random.default_rng(0), pref=pref)
    assert m.assignment == (0, 0)


def test_repair_eviction_order_and_destination():
    # All three clusters claim tile 0 on a 2x2 mesh, capacity 1. Evictions go
    # most-recent-first to the nearest free tile, ties to the lowest index.
    hw = _hw(num_tiles=4, tile_capacity=1, mesh=(2, 2))
    binary = np.zeros((3, 4), dtype=int)
    binary[:, 0] = 1
    m = repair(binary, hw, np.random.default_rng(0))
    assert m.assignment == (0, 2, 1)


def test_repair_processes_overloaded_tiles_ascending():
    hw = _hw(num_tiles=4, tile_capacity=1, mesh=(2, 2))
    binary = np.zeros((4, 4), dtype=int)
    binary[0, 1] = binary[1, 1] = 1
    binary[2, 3] = binary[3, 3] = 1
    m = repair(binary, hw, np.random.default_rng(0))
    # Tile 1 overflow resolved first (row 1 -> tile 0), then tile 3 (row 3 -> tile 2).
    assert m.assignment == (1, 0, 3, 2)


def test_repair_always_feasible_property():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n_tiles = int(rng.integers(2, 7))
        cap = int(rng.integers(1, 4))
        n_clusters = int(rng.integers(1, n_tiles * cap + 1))
        binary = rng.integers(0, 2, (n_clusters, n_tiles))
        hw = _hw(num_tiles=n_tiles, tile_capacity=cap)
        m = repair(binary, hw, rng, pref=rng.random((n_clusters, n_tiles)))
        assert mapping_violations(m, _snn_of(n_clusters), hw) == []


def test_repair_infeasible_instance():
    hw = _hw(num_tiles=2, tile_capacity=1)
    with pytest.raises(InfeasibleError):
        repair(np.zeros((3, 2), dtype=int), hw, np.random.default_rng(0))


def test_repair_rejects_bad_shape():
    hw = _hw(num_tiles=2, tile_capacity=1)
    with pytest.raises(ValueError):
        repair(np.zeros((2, 3), dtype=int), hw, np.random.default_rng(0))


def _reference_repair(binary, hw, pref):
    """The per-matrix repair: each row fixed in turn, then one linear scan of
    every tile for each eviction."""
    b = np.asarray(binary)
    num_clusters, num_tiles = b.shape
    assignment = np.empty(num_clusters, dtype=np.int64)
    for i in range(num_clusters):
        ones = np.flatnonzero(b[i])
        if ones.size == 1:
            assignment[i] = ones[0]
        else:
            assignment[i] = int(np.argmax(pref[i]))
    loads = np.bincount(assignment, minlength=num_tiles)
    for tile in range(num_tiles):
        while loads[tile] > hw.tile_capacity:
            mover = int(np.flatnonzero(assignment == tile)[-1])
            dest = min(
                (t for t in range(num_tiles) if loads[t] < hw.tile_capacity),
                key=lambda t: (hw.manhattan_hops(tile, t), t),
            )
            assignment[mover] = dest
            loads[tile] -= 1
            loads[dest] += 1
    return tuple(assignment.tolist())


_REPAIR_MESHES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (4, 2), (5, 3), (1, 2), (1, 6),
                  (7, 1)]


@st.composite
def _repair_batches(draw):
    width, height = draw(st.sampled_from(_REPAIR_MESHES))
    num_tiles = width * height
    cap = draw(st.integers(1, 3))
    hw = _hw(num_tiles=num_tiles, tile_capacity=cap, mesh=(width, height))
    num_clusters = draw(st.integers(1, num_tiles * cap))
    n = draw(st.integers(1, 8))
    # Rows aimed at a few hot tiles overload them, so evictions chain outwards
    # over tiles that earlier evictions filled.
    hot = draw(st.lists(st.integers(0, num_tiles - 1), min_size=1, max_size=3))
    hot_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    cells = draw(st.sampled_from([(0, 1), (0, 0, 0, 1), (0, 1, 2, -1)]))
    levels = draw(st.sampled_from([(0.0,), (0.0, 0.5), (0.0, 0.25, 0.5, 1.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.choice(cells, size=(n, num_clusters, num_tiles))
    pref = rng.choice(levels, size=(n, num_clusters, num_tiles))  # ties are common
    aimed = rng.random((n, num_clusters)) < hot_share
    tiles = rng.choice(hot, size=(n, num_clusters))
    bits[aimed] = 0
    bits[aimed, tiles[aimed]] = rng.choice([1, 2, -1], size=int(aimed.sum()))
    pref[~aimed, tiles[~aimed]] = max(levels)  # non-one-hot rows favour hot tiles too
    return hw, bits, pref


@settings(max_examples=300, deadline=None)
@given(_repair_batches())
def test_repair_rows_equals_per_matrix_reference(batch):
    hw, bits, pref = batch
    num_clusters = bits.shape[1]
    rows = repair_rows(bits, pref, hw)
    assert rows.dtype == np.int64 and rows.shape == bits.shape[:2]
    # The step hands repair_rows bool bits: the same 1s give the same rows.
    assert np.array_equal(repair_rows(bits != 0, pref, hw), rows)
    for i, row in enumerate(rows.tolist()):
        assert tuple(row) == _reference_repair(bits[i], hw, pref[i])
        assert repair(bits[i], hw, np.random.default_rng(0), pref=pref[i]).assignment \
            == tuple(row)
        assert mapping_violations(Mapping(row), _snn_of(num_clusters), hw) == []


def test_repair_large_mesh_without_tile_table():
    # 90,000 tiles: a dense tile-by-tile order would need 65 GB.
    hw = _hw(num_tiles=90_000, tile_capacity=1, mesh=(300, 300))
    binary = np.zeros((2, 90_000), dtype=np.int8)
    binary[:, 0] = 1
    assert repair(binary, hw, np.random.default_rng(0)).assignment == (0, 1)
    wl = generate_poisson_workload(WorkloadShape(num_clusters=2), 20.0, 1.0, 0)
    ctx = EvalContext(wl, hw, AgingParams(), PerfParams())
    res = optimize(wl.snn, hw, PsoConfig(n_particles=2, max_iterations=1, seed=0), ctx)
    assert res.total_evaluations == 4
    assert mapping_violations(res.mapping, wl.snn, hw) == []


@st.composite
def _mesh_tiles(draw):
    long = draw(st.integers(1, 12))
    mesh = draw(st.sampled_from([(1, long), (long, 1),
                                 (draw(st.integers(1, 8)), draw(st.integers(1, 8)))]))
    return mesh, draw(st.integers(0, mesh[0] * mesh[1] - 1))


@settings(max_examples=300, deadline=None)
@given(_mesh_tiles())
def test_ring_walk_is_every_other_tile_by_hops_then_index(case):
    (width, height), tile = case
    y0, x0 = divmod(tile, width)

    def hops(t):
        y, x = divmod(t, width)
        return abs(x - x0) + abs(y - y0)

    want = sorted((t for t in range(width * height) if t != tile),
                  key=lambda t: (hops(t), t))
    assert list(_ring_walk(tile, (width, height))) == want


def test_repair_rows_many_particles_overflow_one_tile():
    # Every particle crowds the centre of a 5x5 mesh, each to its own depth,
    # so the centre's shared ring order is read, cut short and extended again
    # by particles in turn; some also overflow a second tile.
    hw = _hw(num_tiles=25, tile_capacity=1, mesh=(5, 5))
    rng = np.random.default_rng(12)
    n, num_clusters = 40, 24
    bits = np.zeros((n, num_clusters, 25), dtype=np.int64)
    for i in range(n):
        crowd = rng.choice(num_clusters, size=int(rng.integers(2, num_clusters + 1)),
                           replace=False)
        rest = np.setdiff1d(np.arange(num_clusters), crowd)
        bits[i, crowd, 12] = 1
        bits[i, rest, rng.integers(0, 25, rest.size)] = 1
    pref = rng.random((n, num_clusters, 25))
    crowded = (bits[:, :, 12] != 0).sum(axis=1)
    assert (crowded > 1).all() and len(set(crowded.tolist())) > 5
    rows = repair_rows(bits, pref, hw)
    for i, row in enumerate(rows.tolist()):
        assert repair(bits[i], hw, np.random.default_rng(0), pref=pref[i]).assignment \
            == tuple(row)
        assert tuple(row) == _reference_repair(bits[i], hw, pref[i])


def test_repair_rows_keeps_ring_orders_across_calls():
    # The centre's ring order outlives a call, grows only as far as the
    # deepest walk so far, and later calls, shallower or deeper, read it.
    hw = _hw(num_tiles=25, tile_capacity=1, mesh=(5, 5))
    _ring_orders.cache_clear()
    for depth, walked in ((3, 3), (1, 3), (6, 6), (2, 6)):
        bits = np.zeros((1, depth + 1, 25), dtype=np.int64)
        bits[0, :, 12] = 1  # `depth` clusters too many on the centre
        pref = np.zeros(bits.shape)
        row = repair_rows(bits, pref, hw)[0].tolist()
        assert tuple(row) == _reference_repair(bits[0], hw, pref[0])
        assert list(_ring_orders(hw.mesh)) == [12]
        assert _ring_orders(hw.mesh)[12][0] == list(_ring_walk(12, hw.mesh))[:walked]


# ---------------------------------------------------------------- stepping


def test_initialize_swarm_feasible_and_evaluated():
    ctx = _ctx(num_clusters=3, num_tiles=3)
    cfg = PsoConfig(n_particles=8, max_iterations=10, seed=1)
    state = initialize_swarm(cfg, ctx)
    assert state.positions.shape == (8, 3, 3)
    assert state.velocities.shape == (8, 3, 3)
    assert np.all(state.velocities == 0.0)
    assert state.p_best.shape == (8, 3) and state.p_best.dtype == np.int64
    assert np.array_equal(_corners(state.p_best, 3), state.positions)
    assert state.iteration == 0
    archive = _archive(state.batches)
    assert len(archive) >= 1
    assert state.p_best_fit[state.g_best] == min(state.p_best_fit)
    snn = ctx.workload.snn
    for entry in archive:
        assert mapping_violations(Mapping(entry.assignment), snn, ctx.hw) == []


def _all_infinite_ctx(objective):
    # alpha ~ 1e-313: every aging, and so every lambda, is inf
    base = _ctx(num_clusters=3, num_tiles=3)
    return EvalContext(base.workload, base.hw, AgingParams(tddb=TddbParams(gamma=425.0)),
                       PerfParams(), objective=objective)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_initialize_all_infinite_swarm_keeps_particle_zero():
    # Every lambda is inf. No personal best improves on the starting inf, and
    # the global best stays particle 0, the one argmin picks out of an all-inf
    # swarm.
    ctx = _all_infinite_ctx("lambda")
    state = initialize_swarm(PsoConfig(n_particles=6, max_iterations=0, seed=4), ctx)
    assert np.all(state.p_best_fit == math.inf) and state.g_best == 0
    # every personal best is still its particle's repaired starting row
    assert np.array_equal(state.p_best, state.positions.argmax(axis=2))
    assert np.array_equal(_corners(state.p_best, 3), state.positions)
    assert {e.iteration for e in _archive(state.batches)} == {0}


def test_step_zero_phi_keeps_positions():
    ctx = _ctx(num_clusters=3, num_tiles=3)
    cfg = PsoConfig(n_particles=6, max_iterations=5, seed=2, phi1=0.0, phi2=0.0)
    state = initialize_swarm(cfg, ctx)
    pos0 = state.positions.copy()
    before = state.p_best_fit.copy()
    step_swarm(state, cfg, ctx)
    assert np.array_equal(state.velocities, np.zeros_like(state.velocities))
    assert np.array_equal(state.positions, pos0)
    assert np.all(state.p_best_fit <= before)
    assert state.iteration == 1


def test_step_velocity_clamped():
    ctx = _ctx(num_clusters=3, num_tiles=3)
    cfg = PsoConfig(n_particles=6, max_iterations=5, seed=3, v_clamp=0.5)
    state = initialize_swarm(cfg, ctx)
    for _ in range(5):
        step_swarm(state, cfg, ctx)
    assert np.max(np.abs(state.velocities)) <= 0.5 + 1e-15


def _reference_step(state, cfg, ctx):
    """The swarm step as it was before it worked in place: the personal
    bests' one-hot corners built whole, the velocity as one expression, the
    sigmoid through np.where, 0/1 int64 bits, and the per-matrix repair."""
    best = np.zeros(state.positions.shape)
    np.put_along_axis(best, state.p_best[..., None], 1.0, axis=2)
    r1 = state.rng.random(state.positions.shape)
    r2 = state.rng.random(state.positions.shape)
    vel = (
        state.velocities
        + cfg.phi1 * r1 * (best - state.positions)
        + cfg.phi2 * r2 * (best[state.g_best] - state.positions)
    )
    np.clip(vel, -cfg.v_clamp, cfg.v_clamp, out=vel)
    state.velocities = vel
    state.positions = state.positions + vel
    state.iteration += 1
    e = np.exp(-np.abs(vel))
    vhat = np.where(vel >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    bits = np.where(state.rng.random(vhat.shape) < vhat, 0, 1)
    rows = np.array([_reference_repair(b, ctx.hw, v) for b, v in zip(bits, vhat)],
                    dtype=np.int64).reshape(state.p_best.shape)
    _update(state, rows, ctx)
    return state



@st.composite
def _swarm_cases(draw):
    width, height = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (1, 4), (3, 3)]))
    num_tiles = width * height
    cap = draw(st.integers(1, 3))
    num_clusters = draw(st.integers(1, min(6, num_tiles * cap)))
    n_p = draw(st.integers(2, 5))
    cfg = PsoConfig(
        n_particles=n_p, max_iterations=3,
        phi1=draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
        phi2=draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
        # the smallest subnormal, tiny, the default, and large enough that
        # the clamp never binds
        v_clamp=draw(st.sampled_from([5e-324, 1e-12, 0.5, 4.0, 1e6, 1e300])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n_p, num_clusters, num_tiles)
    p_best = rng.integers(0, num_tiles, shape[:2])
    corners = np.zeros(shape)
    np.put_along_axis(corners, p_best[..., None], 1.0, axis=2)
    # Positions at a corner, at reals, or at reals of magnitude up to 1e6;
    # either way some cells hold -0.0 and some +0.0, and the velocities too.
    scale = draw(st.sampled_from([0.0, 1.0, 1e6]))
    positions = corners + scale * rng.normal(size=shape)
    velocities = draw(st.sampled_from([0.0, 1.0, 50.0])) * rng.normal(size=shape)
    for a in (positions, velocities):
        zeros = rng.random(shape) < 0.3
        a[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    p_best_fit = np.where(rng.random(n_p) < 0.3, math.inf, rng.random(n_p))
    wl = generate_poisson_workload(
        WorkloadShape(num_clusters=num_clusters, kind="random", edge_prob=0.3), 30.0, 1.0,
        int(rng.integers(1000)))
    hw = _hw(num_tiles=num_tiles, tile_capacity=cap, mesh=(width, height))
    state = dict(positions=positions, velocities=velocities, p_best=p_best,
                 p_best_fit=p_best_fit, g_best=int(rng.integers(n_p)), iteration=1,
                 seed=int(rng.integers(2 ** 32)))
    return wl, hw, cfg, state, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_swarm_cases())
def test_step_swarm_equals_the_step_before_it_worked_in_place(case):
    wl, hw, cfg, fields, steps = case
    seed = fields.pop("seed")
    states = []
    for _ in range(2):
        copies = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
        states.append(SwarmState(rng=np.random.default_rng(seed), **copies))
    got, want = states
    ctx, ref_ctx = (EvalContext(wl, hw, AgingParams(), PerfParams()) for _ in range(2))
    for _ in range(steps):
        step_swarm(got, cfg, ctx)
        _reference_step(want, cfg, ref_ctx)
        # every bit: +0.0 and -0.0 are told apart
        assert np.array_equal(got.positions.view(np.uint64), want.positions.view(np.uint64))
        assert np.array_equal(got.velocities.view(np.uint64), want.velocities.view(np.uint64))
        (rows, ev), (want_rows, want_ev) = got.batches[-1], want.batches[-1]
        assert np.array_equal(rows, want_rows) and rows.dtype == want_rows.dtype
        for column, want_column in zip(ev, want_ev):
            assert np.array_equal(column.view(np.uint64), want_column.view(np.uint64))
        assert np.array_equal(got.p_best, want.p_best)
        assert np.array_equal(got.p_best_fit, want.p_best_fit)
        assert got.g_best == want.g_best and got.iteration == want.iteration
        assert got.rng.bit_generator.state == want.rng.bit_generator.state


@pytest.mark.parametrize("objective", ["lambda", "tau"])
def test_update_tie_keeps_personal_best_corner(objective):
    # A new value equal to the personal best is no improvement, so particles 0
    # and 2 keep their old rows; particle 1's value is strictly lower and moves
    # it. The two rows mirror each other on the 3x1 mesh, so all three values
    # tie: the global best keeps its incumbent, particle 2, though argmin of
    # the personal bests is particle 0.
    ctx = _ctx(num_clusters=3, num_tiles=3, objective=objective)
    rows = np.array([[0, 1, 2], [2, 1, 0], [0, 1, 2]])
    ev = ctx.evaluate_rows(rows)
    value = ev.lam if objective == "lambda" else ev.tau
    assert value[0] == value[1] == value[2]
    old = np.array([[1, 0, 2], [1, 2, 0], [2, 0, 1]])  # none of them in rows
    state = SwarmState(positions=_corners(old, 3), velocities=np.zeros((3, 3, 3)),
                       p_best=old.copy(),
                       p_best_fit=np.array([value[0], np.nextafter(value[1], np.inf),
                                            value[2]]),
                       g_best=2, iteration=1, rng=np.random.default_rng(0))
    _update(state, rows, ctx)
    assert state.p_best_fit.tolist() == value.tolist()
    assert state.p_best.tolist() == [old[0].tolist(), rows[1].tolist(), old[2].tolist()]
    assert state.g_best == 2


@pytest.mark.parametrize("objective", ["lambda", "tau"])
def test_update_improved_incumbent_yields_to_lowest_index(objective):
    # Both particles tie above the new value, and the incumbent is particle 1.
    # Both improve to the same value: that is strictly below the incumbent's
    # value before the update, so the global best moves to the lowest index of
    # the new minimum, particle 0, although particle 1 improved as well.
    ctx = _ctx(num_clusters=3, num_tiles=3, objective=objective)
    rows = np.array([[0, 1, 2], [2, 1, 0]])  # mirror images: equal values
    ev = ctx.evaluate_rows(rows)
    value = ev.lam if objective == "lambda" else ev.tau
    old = np.array([[1, 0, 2], [1, 2, 0]])
    state = SwarmState(positions=_corners(old, 3), velocities=np.zeros((2, 3, 3)),
                       p_best=old.copy(), p_best_fit=np.full(2, np.nextafter(value[0], np.inf)),
                       g_best=1, iteration=1, rng=np.random.default_rng(0))
    _update(state, rows, ctx)
    assert state.p_best.tolist() == rows.tolist()
    assert state.g_best == 0


def test_g_best_monotone_non_increasing():
    ctx = _ctx(num_clusters=4, num_tiles=2, tile_capacity=2, seed=11)
    cfg = PsoConfig(n_particles=10, max_iterations=30, seed=4)
    state = initialize_swarm(cfg, ctx)
    fits = [state.p_best_fit[state.g_best]]
    for _ in range(30):
        step_swarm(state, cfg, ctx)
        fits.append(state.p_best_fit[state.g_best])
    assert all(a >= b for a, b in zip(fits, fits[1:]))
    assert state.p_best_fit[state.g_best] == min(state.p_best_fit)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@pytest.mark.parametrize("objective", ["lambda", "tau"])
@pytest.mark.parametrize("make_ctx, n_p, seed", [
    (lambda o: _ctx(num_clusters=3, num_tiles=3, objective=o), 6, 1),
    (lambda o: _ctx(num_clusters=4, num_tiles=2, tile_capacity=2, seed=11, objective=o), 10, 4),
    (lambda o: _ctx(num_clusters=7, num_tiles=4, tile_capacity=2, seed=5, objective=o), 8, 2),
    (lambda o: _ctx(num_clusters=8, num_tiles=3, tile_capacity=3, seed=9, objective=o), 12, 7),
    (_all_infinite_ctx, 6, 4),
], ids=["3x3_cap1", "4x2_cap2", "7x4_cap2", "8x3_cap3", "all_inf"])
def test_swarm_bests_are_archived_and_g_best_holds_the_minimum(make_ctx, n_p, seed,
                                                                objective):
    # After the start and after every step, each personal best is an archived
    # assignment whose objective value is its p_best_fit, and the global best
    # holds the smallest of them.
    ctx = make_ctx(objective)
    cfg = PsoConfig(n_particles=n_p, max_iterations=12, seed=seed)
    state = initialize_swarm(cfg, ctx)
    for step in range(13):
        if step:
            step_swarm(state, cfg, ctx)
        assert state.p_best.shape == (n_p, len(ctx.workload.snn.clusters))
        archive = {e.assignment: e for e in _archive(state.batches)}
        for row, fit in zip(state.p_best.tolist(), state.p_best_fit.tolist()):
            entry = archive[tuple(row)]
            assert (entry.lam if objective == "lambda" else entry.tau) == fit
        assert state.p_best_fit[state.g_best] == state.p_best_fit.min()


# ---------------------------------------------------------------- optimize


def test_optimize_single_cluster_single_tile():
    ctx = _ctx(num_clusters=1, num_tiles=1)
    res = optimize(ctx.workload.snn, ctx.hw, PsoConfig(n_particles=2, max_iterations=3, seed=0), ctx)
    assert res.mapping.assignment == (0,)
    assert len(res.front.points) == 1
    assert res.front.points[0].mapping.assignment == (0,)


def test_optimize_matches_brute_force_minimum():
    for seed in range(5):
        ctx = _ctx(num_clusters=3, num_tiles=3, seed=seed)
        best_lam = min(
            ctx.evaluate(Mapping(a)).lam for a in _all_feasible(3, 3, 1)
        )
        cfg = PsoConfig(n_particles=20, max_iterations=50, seed=seed)
        res = optimize(ctx.workload.snn, ctx.hw, cfg, ctx)
        assert res.evaluation.lam == best_lam


def test_optimize_tau_objective():
    ctx = _ctx(num_clusters=3, num_tiles=3, seed=9, objective="tau")
    best_tau = min(ctx.evaluate(Mapping(a)).tau for a in _all_feasible(3, 3, 1))
    res = optimize(ctx.workload.snn, ctx.hw,
                   PsoConfig(n_particles=20, max_iterations=50, seed=1), ctx)
    assert res.evaluation.tau == best_tau


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@pytest.mark.parametrize("objective", ["lambda", "tau"])
@pytest.mark.parametrize("case", ["finite", "inf_aging", "zero_tau"])
def test_optimize_evaluation_is_the_archived_best(objective, case):
    # optimize reads its best mapping's evaluation from the archive and never
    # calls evaluate; the value is still what evaluate gives. With inf aging
    # (alpha ~ 1e-313) every lambda is inf, and with zero latencies every tau
    # and lambda is 0: no personal best ever improves, and g_best stays
    # particle 0's starting corner, the archive's first entry.
    base = _ctx(num_clusters=3, num_tiles=3)
    aging = AgingParams() if case == "finite" else AgingParams(tddb=TddbParams(gamma=425.0))
    perf = PerfParams(0.0, 0.0) if case == "zero_tau" else PerfParams()
    ctx, ref = (EvalContext(base.workload, base.hw, aging, perf, objective=objective)
                for _ in range(2))
    cfg = PsoConfig(n_particles=6, max_iterations=4, seed=4)
    with patch.object(ctx, "evaluate", side_effect=AssertionError("evaluate called")):
        res = optimize(ctx.workload.snn, ctx.hw, cfg, ctx)
    assert res.evaluation == ref.evaluate(res.mapping)
    if case == "zero_tau" or (case == "inf_aging" and objective == "lambda"):
        assert res.mapping.assignment == res.archive[0].assignment


def test_optimize_deterministic():
    ctx1 = _ctx(num_clusters=4, num_tiles=2, tile_capacity=2, seed=5)
    ctx2 = _ctx(num_clusters=4, num_tiles=2, tile_capacity=2, seed=5)
    cfg = PsoConfig(n_particles=12, max_iterations=20, seed=42)
    r1 = optimize(ctx1.workload.snn, ctx1.hw, cfg, ctx1)
    r2 = optimize(ctx2.workload.snn, ctx2.hw, cfg, ctx2)
    assert r1.mapping.assignment == r2.mapping.assignment
    assert r1.evaluation == r2.evaluation
    assert list(r1.archive) == list(r2.archive)
    assert r1.front == r2.front


def test_optimize_front_not_dominated_by_archive():
    ctx = _ctx(num_clusters=4, num_tiles=2, tile_capacity=2, seed=13)
    cfg = PsoConfig(n_particles=10, max_iterations=25, seed=6)
    res = optimize(ctx.workload.snn, ctx.hw, cfg, ctx)
    for fp in res.front.points:
        for entry in res.archive:
            dominates = (
                entry.tau <= fp.tau and entry.aging <= fp.aging
                and (entry.tau < fp.tau or entry.aging < fp.aging)
            )
            assert not dominates


def test_optimize_counts_evaluations():
    ctx = _ctx(num_clusters=3, num_tiles=3)
    cfg = PsoConfig(n_particles=7, max_iterations=11, seed=8)
    res = optimize(ctx.workload.snn, ctx.hw, cfg, ctx)
    assert res.iterations == 11
    assert res.total_evaluations == 7 * 12  # init + 11 steps
    assert res.unique_mappings == len(res.archive)
    assert res.unique_mappings <= res.total_evaluations


def test_optimize_resolves_default_budget():
    ctx = _ctx(num_clusters=2, num_tiles=2, seed=3)
    res = optimize(ctx.workload.snn, ctx.hw, PsoConfig(seed=0), ctx)
    # Defaults: max(20, 2*|C|) particles, 100*|C| iterations.
    assert res.total_evaluations == 20 * (200 + 1)


def test_optimize_infeasible_instance():
    ctx = _ctx(num_clusters=3, num_tiles=2, tile_capacity=1)
    with pytest.raises(InfeasibleError):
        optimize(ctx.workload.snn, ctx.hw, PsoConfig(n_particles=4, max_iterations=2, seed=0), ctx)


def test_optimize_rejects_mismatched_context():
    ctx = _ctx(num_clusters=3, num_tiles=3)
    other = _ctx(num_clusters=2, num_tiles=2)
    with pytest.raises(ValueError):
        optimize(other.workload.snn, other.hw, PsoConfig(n_particles=4, max_iterations=2, seed=0), ctx)


_MESH_24 = """\
hardware: {num_tiles: 25, mesh: [5, 5], crossbar_dim: 64, tile_capacity: 1,
           temperature: 300.0, device: {kind: diode_1D1R}}
pso: {n_particles: 24, max_iterations: 12, seed: 5}
workload:
  poisson: {num_clusters: 24, neurons_per_cluster: 16, synapses_per_cluster: 48,
            kind: random, edge_prob: 0.125, rate: 60.0, window: 1.0, seed: 11}
"""

# More than 64 clusters, two to a tile: hosted sets span two mask words.
_MESH_70 = """\
hardware: {num_tiles: 36, mesh: [6, 6], crossbar_dim: 64, tile_capacity: 2,
           temperature: 300.0, device: {kind: diode_1D1R}}
pso: {n_particles: 20, max_iterations: 4, seed: 3}
workload:
  poisson: {num_clusters: 70, neurons_per_cluster: 16, synapses_per_cluster: 48,
            kind: random, edge_prob: 0.05, rate: 40.0, window: 1.0, seed: 13}
"""

# 128 clusters on an 8x8 mesh at capacity 2: the mesh is exactly full, so
# every overloaded tile's walk passes full tiles, and the keys are two words.
_MESH_128 = """\
hardware: {num_tiles: 64, mesh: [8, 8], crossbar_dim: 64, tile_capacity: 2,
           temperature: 300.0, device: {kind: diode_1D1R}}
pso: {n_particles: 32, max_iterations: 3, seed: 3}
workload:
  poisson: {num_clusters: 128, neurons_per_cluster: 16, synapses_per_cluster: 48,
            kind: random, edge_prob: 0.025, rate: 40.0, window: 1.0, seed: 13}
"""


def _archive_digest(cfg):
    ctx = EvalContext(cfg.workload, cfg.hardware, cfg.aging, cfg.perf)
    res = optimize(cfg.workload.snn, cfg.hardware, cfg.pso, ctx)
    h = hashlib.sha256()
    for e in res.archive:
        h.update(repr((e.assignment, e.tau.hex(), e.aging.hex())).encode("ascii"))
    return h.hexdigest()


def test_optimize_archive_golden():
    # Pinned before the swarm step was batched: every archived mapping, in
    # archive order, with its exact tau and aging bits.
    baseline = Path(__file__).resolve().parents[1] / "configs" / "baseline.yaml"
    assert _archive_digest(load_run_config(str(baseline))) == \
        "1e2f3b59d2a3a68f345ffb2147769198ea25d9e3b88dfd33da888976a0195619"
    assert _archive_digest(parse_run_config(_MESH_24)) == \
        "d4e72e80f4c1c1f926b8cd23a8695efdba12806b8d58c9bcb2f1fd7c60330a1e"
    assert _archive_digest(parse_run_config(_MESH_70)) == \
        "c7778d43683b4d26bac337872f087a28cbd069a8520da6fd8d706d88ef714340"
    assert _archive_digest(parse_run_config(_MESH_128)) == \
        "a3a783cbbc1c45c811665defd72ec28fe6831d046b5d52ad1fb10c36fde50747"


# ---------------------------------------------------------------- archive


def _reference_archive(batches):
    # The archive as a dict, as _update kept it before the archive became
    # arrays: each assignment not seen before, in particle order, with its
    # values and the iteration of its batch.
    archive = {}
    for iteration, (rows, ev) in enumerate(batches):
        for assignment, *values in zip(map(tuple, rows.tolist()), *(c.tolist() for c in ev)):
            if assignment not in archive:  # values: tau, aging, lam
                archive[assignment] = ArchiveEntry(assignment, *values, iteration)
    return archive


@st.composite
def _evaluated_batches(draw):
    # Batches drawn from a small pool of rows, so that rows repeat within a
    # batch and across iterations; meshes past 256 tiles store uint16 rows.
    num_tiles = draw(st.sampled_from([1, 3, 16, 256, 257, 300]))
    num_clusters, n_p = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    pool = draw(st.lists(st.tuples(*[st.integers(0, num_tiles - 1)] * num_clusters),
                         min_size=1, max_size=8, unique=True))
    # tau is finite, as the config guarantees; lambda is then never NaN.
    tau = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3))
    aging = st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(0.0, 1e3))
    values = {row: draw(st.tuples(tau, aging)) for row in pool}
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=n_p, max_size=n_p)))
        tau, aging = (np.array(c) for c in zip(*(values[r] for r in map(tuple, rows.tolist()))))
        batches.append((rows, Evaluation(tau, aging, swarm_module.lambdas(tau, aging))))
    return num_tiles, batches


@settings(max_examples=200, deadline=None)
@given(_evaluated_batches())
def test_archive_matches_the_dict_archive(case):
    # _update keeps each batch as compact rows and columns; the archive built
    # from them holds the dict archive's entries, in its order, with the same
    # first iterations, as Python ints and floats.
    num_tiles, batches = case
    n_p, num_clusters = batches[0][0].shape
    replay = iter(ev for _, ev in batches)
    ctx = SimpleNamespace(hw=SimpleNamespace(num_tiles=num_tiles), objective="lambda",
                          evaluate_rows=lambda rows: next(replay))
    state = SwarmState(positions=np.zeros((n_p, num_clusters, num_tiles)),
                       velocities=np.zeros((n_p, num_clusters, num_tiles)),
                       p_best=batches[0][0].copy(), p_best_fit=np.full(n_p, math.inf),
                       g_best=0, iteration=0, rng=np.random.default_rng(0))
    for rows, _ in batches:
        _update(state, rows, ctx)
    archive = _archive(state.batches)
    want = list(_reference_archive(batches).values())
    assert all(rows.dtype == np.min_scalar_type(num_tiles - 1) for rows, _ in state.batches)
    assert archive.rows.dtype == np.min_scalar_type(num_tiles - 1)
    assert list(archive) == want
    assert [archive[i] for i in range(len(archive))] == want
    assert len(archive) == len(want)
    assert [archive.index(np.array(e.assignment)) for e in want] == list(range(len(want)))
    assert all(type(v) is int for e in archive for v in (*e.assignment, e.iteration))
    assert all(type(v) is float for e in archive for v in (e.tau, e.aging, e.lam))
    assert not any(c.flags.writeable for c in vars(archive).values())


# ---------------------------------------------------------------- pareto


def _entry(assign, tau, aging, it=0):
    return ArchiveEntry(assignment=tuple(assign), tau=tau, aging=aging,
                        lam=tau * aging, iteration=it)


def _as_archive(entries):
    """entries, in their order, as the columns of an Archive."""
    return Archive(np.array([e.assignment for e in entries]),
                   *(np.array([getattr(e, name) for e in entries])
                     for name in ("tau", "aging", "lam", "iteration")))


def test_extract_pareto_empty_errors():
    with pytest.raises(ValueError):
        extract_pareto(_as_archive([]))


@pytest.mark.parametrize("tau, aging", [(math.nan, 1.0), (1.0, math.nan)])
def test_extract_pareto_rejects_nan(tau, aging):
    # A NaN tau used to stall the equal-tau group scan forever (NaN != NaN).
    entries = [_entry([0], 1.0, 2.0), _entry([1], tau, aging)]
    with pytest.raises(ValueError, match="NaN"):
        extract_pareto(_as_archive(entries))


def test_extract_pareto_keeps_fastest_group_at_infinite_aging():
    # Nothing dominates the fastest points, even when every aging is inf.
    entries = [_entry([1], 2.0, math.inf), _entry([0], 1.0, math.inf),
               _entry([2], 1.0, math.inf)]
    front = extract_pareto(_as_archive(entries))
    assert [(p.mapping.assignment, p.tau) for p in front.points] == [((0,), 1.0), ((2,), 1.0)]
    front = extract_pareto(_as_archive([_entry([0], 1.0, math.inf), _entry([1], 2.0, 3.0)]))
    assert [p.aging for p in front.points] == [math.inf, 3.0]


def test_extract_pareto_single_point():
    front = extract_pareto(_as_archive([_entry([0], 1.0, 2.0)]))
    assert len(front.points) == 1
    assert front.points[0].tau == 1.0 and front.points[0].aging == 2.0


def test_extract_pareto_dominated_dropped():
    front = extract_pareto(_as_archive([_entry([0], 1.0, 2.0), _entry([1], 1.0, 1.0)]))
    assert [(p.tau, p.aging) for p in front.points] == [(1.0, 1.0)]


def test_extract_pareto_keeps_objective_ties():
    front = extract_pareto(_as_archive([_entry([0, 1], 1.0, 1.0), _entry([1, 0], 1.0, 1.0)]))
    assert len(front.points) == 2
    assert front.points[0].mapping.assignment == (0, 1)


# Few distinct values, so that duplicate (tau, aging) pairs and equal-tau
# groups are common; tau = 0 and inf aging included.
_TAUS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1e3))
_AGINGS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.inf]), st.floats(0.0, 1e3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), _TAUS, _AGINGS), min_size=1, max_size=40,
                unique_by=lambda x: x[0]))
@example([(0, 1.0, math.inf), (1, 2.0, math.inf), (2, 1.0, math.inf)])
@example([(5, 0.0, 1.0), (3, 0.0, 1.0), (4, 0.5, 1.0), (1, 0.5, 0.5), (2, 0.5, 0.5)])
def test_extract_pareto_matches_quadratic_oracle(items):
    entries = [_entry([i], tau, aging) for i, tau, aging in items]
    want = sorted(
        (e.tau, e.aging, e.assignment) for e in entries
        if not any(o.tau <= e.tau and o.aging <= e.aging
                   and (o.tau < e.tau or o.aging < e.aging) for o in entries)
    )
    got = [(p.tau, p.aging, p.mapping.assignment)
           for p in extract_pareto(_as_archive(entries)).points]
    assert got == want


def test_extract_pareto_sorted_by_tau():
    rng = np.random.default_rng(5)
    entries = [_entry([i], float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
               for i in range(50)]
    pts = extract_pareto(_as_archive(entries)).points
    taus = [p.tau for p in pts]
    assert taus == sorted(taus)
    agings = [p.aging for p in pts]
    assert agings == sorted(agings, reverse=True)


def test_pareto_front_validates_dominance():
    with pytest.raises(ValueError):
        ParetoFront(points=(
            FrontPoint(Mapping([0]), 1.0, 1.0),
            FrontPoint(Mapping([1]), 2.0, 1.0),
        ))
    with pytest.raises(ValueError):
        ParetoFront(points=(
            FrontPoint(Mapping([0]), 2.0, 1.0),
            FrontPoint(Mapping([1]), 1.0, 2.0),
        ))  # unsorted


# ---------------------------------------------------------------- selection


def _front(*pts):
    return ParetoFront(points=tuple(
        FrontPoint(Mapping(a), t, g) for a, t, g in pts
    ))


def test_select_final_singleton():
    front = _front(([0, 1], 1.0, 5.0))
    assert select_final(front, 0.05).assignment == (0, 1)


def test_select_final_epsilon_rule():
    front = _front(([0, 1], 1.0, 10.0), ([1, 0], 1.04, 6.0), ([1, 1], 2.0, 1.0))
    assert select_final(front, 0.05).assignment == (1, 0)


def test_select_final_epsilon_zero():
    front = _front(([0, 1], 1.0, 10.0), ([1, 0], 1.04, 6.0), ([1, 1], 2.0, 1.0))
    assert select_final(front, 0.0).assignment == (0, 1)


def test_select_final_epsilon_infinite():
    front = _front(([0, 1], 1.0, 10.0), ([1, 0], 1.04, 6.0), ([1, 1], 2.0, 1.0))
    assert select_final(front, math.inf).assignment == (1, 1)


def test_select_final_tie_breaks():
    # On a valid front, equal aging forces equal tau (anything else would be
    # dominated), so ties reduce to the lexicographic assignment rule.
    front = ParetoFront(points=(
        FrontPoint(Mapping([1, 0]), 1.0, 6.0),
        FrontPoint(Mapping([0, 1]), 1.0, 6.0),
    ))
    assert select_final(front, 0.05).assignment == (0, 1)


def test_select_final_validation():
    front = _front(([0], 1.0, 1.0))
    with pytest.raises(ValueError):
        select_final(front, -0.1)
    with pytest.raises(ValueError):
        select_final(ParetoFront(points=()), 0.05)
