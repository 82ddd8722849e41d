"""Tests for domain types, trace construction, and workload synthesis."""

import math
from unittest.mock import patch

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
    SpikeTrain,
    VoltageTrace,
    Workload,
    WorkloadShape,
    build_voltage_trace,
    generate_poisson_workload,
    mapping_violations,
    validate_snn,
)


def _diode() -> DeviceProfile:
    return DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)


def _hw(num_tiles=4, crossbar_dim=128, capacity=1, profile=None) -> HardwareConfig:
    return HardwareConfig(
        num_tiles=num_tiles,
        crossbar_dim=crossbar_dim,
        device_profile=profile or _diode(),
        temperature=300.0,
        tile_capacity=capacity,
    )


def _snn(clusters, edges, window=1.0) -> ClusteredSnn:
    return ClusteredSnn(clusters=clusters, edges=edges, workload_window=window)


def _union_intervals(times, pulse, window):
    """Independent interval-union oracle over spike pulses."""
    merged = []
    for t in sorted(times):
        lo, hi = t, min(t + pulse, window)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------- device/hardware


def test_device_profile_diode_defaults():
    p = DeviceProfile(kind="diode_1D1R")
    assert p.v_active == 3.0
    assert p.v_idle == 1.8
    assert p.spike_pulse_width == 100e-6


def test_device_profile_transistor_defaults():
    p = DeviceProfile(kind="transistor_1T1R")
    assert p.v_active == 1.8
    assert p.v_idle == 1.2


def test_device_profile_rejects_inverted_voltages():
    with pytest.raises(ValueError):
        DeviceProfile(kind="diode_1D1R", v_active=1.0, v_idle=2.0)
    with pytest.raises(ValueError):
        DeviceProfile(kind="nonsense")


@pytest.mark.parametrize("field", ["v_active", "v_idle", "spike_pulse_width"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_device_profile_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        DeviceProfile(kind="diode_1D1R", **{field: value})


def test_hardware_mesh_is_most_square():
    assert _hw(num_tiles=4).mesh == (2, 2)
    assert _hw(num_tiles=9).mesh == (3, 3)
    assert _hw(num_tiles=16).mesh == (4, 4)
    assert _hw(num_tiles=12).mesh == (4, 3)
    assert _hw(num_tiles=7).mesh == (7, 1)


def test_hardware_explicit_mesh_must_factor_num_tiles():
    hw = HardwareConfig(num_tiles=6, crossbar_dim=8, device_profile=_diode(), mesh=(2, 3))
    assert hw.mesh == (2, 3)
    with pytest.raises(ValueError):
        HardwareConfig(num_tiles=6, crossbar_dim=8, device_profile=_diode(), mesh=(2, 2))


def test_manhattan_hops_on_2x2_mesh():
    hw = _hw(num_tiles=4)
    # row-major coords: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1)
    assert hw.manhattan_hops(0, 0) == 0
    assert hw.manhattan_hops(0, 1) == 1
    assert hw.manhattan_hops(0, 3) == 2
    assert hw.manhattan_hops(1, 2) == 2


def test_hardware_validation():
    with pytest.raises(ValueError):
        _hw(num_tiles=0)
    for temperature in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            HardwareConfig(num_tiles=1, crossbar_dim=8, device_profile=_diode(),
                           temperature=temperature)
    with pytest.raises(ValueError):
        HardwareConfig(num_tiles=1, crossbar_dim=8, device_profile=_diode(), tile_capacity=0)


@pytest.mark.parametrize("field, value", [
    ("num_tiles", 4.0), ("num_tiles", 4.5), ("num_tiles", True), ("num_tiles", "4"),
    ("crossbar_dim", 8.0), ("crossbar_dim", False), ("crossbar_dim", np.float64(8.0)),
    ("tile_capacity", 1.5), ("tile_capacity", True), ("tile_capacity", np.bool_(True)),
    ("mesh", (2.7, 2.2)), ("mesh", (2, 2.0)), ("mesh", (True, 4)), ("mesh", (np.float64(2), 2)),
])
def test_hardware_refuses_non_integer_fields(field, value):
    # int() would have read mesh (2.7, 2.2) as (2, 2), and tile_capacity 1.5
    # gave a total capacity of 6.0.
    fields = {"num_tiles": 4, "crossbar_dim": 8, "tile_capacity": 2, "mesh": (2, 2), field: value}
    with pytest.raises(ValueError, match=field.replace("mesh", "mesh entry")):
        HardwareConfig(device_profile=_diode(), **fields)


def test_hardware_accepts_numpy_integers():
    hw = HardwareConfig(num_tiles=np.int64(4), crossbar_dim=np.uint16(8),
                        device_profile=_diode(), tile_capacity=np.int8(2),
                        mesh=(np.int32(2), np.uint8(2)))
    assert hw.total_capacity == 8
    assert hw.mesh == (2, 2) and all(type(v) is int for v in hw.mesh)


# ---------------------------------------------------------------- snn validation


def test_validate_snn_boundary_fit():
    snn = _snn([Cluster("a", 128, 128 * 100)], [])
    assert validate_snn(snn, _hw(crossbar_dim=128)) == []


def test_validate_snn_crossbar_overflow():
    snn = _snn([Cluster("a", 129, 0)], [])
    violations = validate_snn(snn, _hw(crossbar_dim=128))
    assert len(violations) == 1
    assert violations[0].kind == "crossbar_overflow"


def test_validate_snn_dangling_edge():
    snn = _snn([Cluster("a", 4, 4)], [Edge("a", "ghost", 10)])
    violations = validate_snn(snn, _hw(crossbar_dim=8))
    assert [v.kind for v in violations] == ["dangling_edge"]


def test_resolved_edges_drop_dangling_edges():
    snn = _snn([Cluster("a", 4, 4), Cluster("b", 4, 4)],
               [Edge("a", "b", 3), Edge("ghost", "b", 5), Edge("b", "a", 2 ** 64),
                Edge("b", "nowhere", 7), Edge("b", "b", 1)])
    assert snn.resolved_edges == ((0, 1, 3), (1, 0, 2 ** 64), (1, 1, 1))
    assert snn.predecessor_sets == (frozenset({1}), frozenset({0, 1}))


def test_validate_snn_fan_in_pigeonhole():
    # 4 output neurons cannot absorb 40 synapses on an 8-wide crossbar.
    snn = _snn([Cluster("a", 4, 40)], [])
    violations = validate_snn(snn, _hw(crossbar_dim=8))
    assert [v.kind for v in violations] == ["fanin_overflow"]


def test_validate_snn_duplicate_cluster_id():
    snn = _snn([Cluster("a", 2, 2), Cluster("a", 2, 2)], [])
    kinds = [v.kind for v in validate_snn(snn, _hw(crossbar_dim=8))]
    assert "duplicate_cluster" in kinds


def test_validate_snn_allows_self_loops():
    snn = _snn([Cluster("a", 4, 4)], [Edge("a", "a", 5)])
    assert validate_snn(snn, _hw(crossbar_dim=8)) == []


def test_snn_constructor_rejects_bad_numbers():
    for window in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="workload_window"):
            _snn([Cluster("a", 2, 2)], [], window=window)
    with pytest.raises(ValueError):
        _snn([Cluster("a", 2, 2)], [Edge("a", "a", -1)])
    with pytest.raises(ValueError):
        Cluster("a", -1, 0)


# ---------------------------------------------------------------- spike trains


def test_spike_train_sorts_and_dedupes():
    train = SpikeTrain([0.5, 0.1, 0.5])
    assert list(train.times) == [0.1, 0.5]
    assert len(train) == 2


def test_spike_train_rejects_negative_times():
    with pytest.raises(ValueError):
        SpikeTrain([-0.1])


@pytest.mark.parametrize("times", [[math.nan], [0.1, math.nan, 0.2], [math.nan, math.nan]])
def test_spike_train_rejects_nan_times(times):
    # A merge of repeated NaNs into one would pass a NaN on to the kernel.
    with pytest.raises(ValueError, match="NaN"):
        SpikeTrain(times)


# ---------------------------------------------------------------- voltage traces


def test_voltage_trace_invariants():
    t = VoltageTrace([(1.8, 0.5), (3.0, 0.5)])
    assert t.segments == ((1.8, 0.5), (3.0, 0.5))
    assert math.isclose(t.span, 1.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        VoltageTrace([(1.8, 0.0)])
    with pytest.raises(ValueError):
        VoltageTrace([(0.0, 1.0)])


def test_voltage_trace_empty_is_allowed():
    t = VoltageTrace([])
    assert t.segments == ()
    assert t.span == 0.0


def test_voltage_trace_keeps_adjacent_equal_voltage_segments():
    t = VoltageTrace([(2.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
    assert t.segments == ((2.0, 1.0), (2.0, 2.0), (3.0, 1.0))
    assert len(t) == 3


def test_merged_coalesces_adjacent_equal_voltages():
    t = VoltageTrace([(2.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
    assert t.merged().segments == ((2.0, 3.0), (3.0, 1.0))


def test_build_trace_empty_train():
    trace = build_voltage_trace(SpikeTrain([]), _diode(), window=1.0)
    assert trace.segments == ((1.8, 1.0),)


def test_build_trace_single_mid_window_spike():
    trace = build_voltage_trace(SpikeTrain([0.5]), _diode(), window=1.0)
    assert [v for v, _ in trace.segments] == [1.8, 3.0, 1.8]
    durations = [d for _, d in trace.segments]
    for got, want in zip(durations, [0.5, 1e-3, 0.499]):
        assert math.isclose(got, want, rel_tol=1e-9)


def test_build_trace_merges_overlapping_pulses():
    # Two spikes 0.5 ms apart with a 1 ms pulse: one merged 1.5 ms active segment.
    trace = build_voltage_trace(SpikeTrain([0.2, 0.2005]), _diode(), window=1.0)
    active = [(v, d) for v, d in trace.segments if v == 3.0]
    assert len(active) == 1
    assert math.isclose(active[0][1], 1.5e-3, rel_tol=1e-9)


def test_build_trace_matches_interval_union_oracle():
    rng = np.random.default_rng(7)
    profile = _diode()
    for _ in range(50):
        n = int(rng.integers(0, 40))
        times = rng.uniform(0.0, 1.0, n)
        trace = build_voltage_trace(SpikeTrain(times), profile, window=1.0)
        want = _union_intervals(times, profile.spike_pulse_width, 1.0)
        got_active = [d for v, d in trace.segments if v == 3.0]
        assert len(got_active) == len(want)
        for dur, (lo, hi) in zip(got_active, want):
            assert math.isclose(dur, hi - lo, rel_tol=1e-9, abs_tol=1e-15)


def test_build_trace_truncates_pulse_at_window():
    trace = build_voltage_trace(SpikeTrain([0.9999]), _diode(), window=1.0)
    assert trace.segments[-1][0] == 3.0
    assert math.isclose(trace.segments[-1][1], 1e-4, rel_tol=1e-9)


def test_build_trace_starts_active_for_spike_at_zero():
    trace = build_voltage_trace(SpikeTrain([0.0]), _diode(), window=1.0)
    assert trace.segments[0][0] == 3.0


def test_build_trace_rejects_out_of_window_spikes():
    with pytest.raises(ValueError):
        build_voltage_trace(SpikeTrain([1.0]), _diode(), window=1.0)


def test_trace_conservation_property():
    # Sum of segment durations equals the window to ulp scale.
    rng = np.random.default_rng(11)
    profile = _diode()
    for _ in range(100):
        times = rng.uniform(0.0, 2.0, int(rng.integers(0, 60)))
        trace = build_voltage_trace(SpikeTrain(times), profile, window=2.0)
        total = math.fsum(d for _, d in trace.segments)
        assert math.isclose(total, 2.0, rel_tol=1e-12)


def test_monotone_stress_property():
    # Adding a spike never decreases total v_active time.
    rng = np.random.default_rng(13)
    profile = _diode()
    for _ in range(50):
        times = list(rng.uniform(0.0, 1.0, int(rng.integers(0, 30))))
        base = build_voltage_trace(SpikeTrain(times), profile, window=1.0)
        extra = times + [float(rng.uniform(0.0, 1.0))]
        more = build_voltage_trace(SpikeTrain(extra), profile, window=1.0)
        active = lambda tr: math.fsum(d for v, d in tr.segments if v == profile.v_active)
        assert active(more) >= active(base) - 1e-15


# ---------------------------------------------------------------- mapping


def test_mapping_violations_detects_problems():
    snn = _snn([Cluster("a", 2, 2), Cluster("b", 2, 2)], [])
    hw = _hw(num_tiles=2, crossbar_dim=8, capacity=1)
    assert mapping_violations(Mapping((0, 1)), snn, hw) == []
    assert mapping_violations(Mapping((0,)), snn, hw) != []       # wrong length
    assert mapping_violations(Mapping((0, 5)), snn, hw) != []     # tile out of range
    assert mapping_violations(Mapping((0, 0)), snn, hw) != []     # capacity exceeded


def test_mapping_capacity_allows_sharing():
    snn = _snn([Cluster("a", 2, 2), Cluster("b", 2, 2)], [])
    hw = _hw(num_tiles=2, crossbar_dim=8, capacity=2)
    assert mapping_violations(Mapping((0, 0)), snn, hw) == []


# ---------------------------------------------------------------- workload synthesis


def test_poisson_zero_rate_gives_empty_trains():
    shape = WorkloadShape(num_clusters=3)
    wl = generate_poisson_workload(shape, rate=0.0, window=1.0, seed=1)
    assert all(len(t) == 0 for t in wl.trains.values())
    assert all(e.spike_count == 0 for e in wl.snn.edges)


def test_poisson_rejects_non_finite_window():
    for window in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="window"):
            generate_poisson_workload(WorkloadShape(num_clusters=2), 5.0, window, seed=1)


def test_poisson_determinism():
    shape = WorkloadShape(num_clusters=4, kind="random", edge_prob=0.3)
    a = generate_poisson_workload(shape, rate=50.0, window=1.0, seed=42)
    b = generate_poisson_workload(shape, rate=50.0, window=1.0, seed=42)
    assert a.snn == b.snn
    for cid in a.trains:
        assert np.array_equal(a.trains[cid].times, b.trains[cid].times)


def test_poisson_mean_spike_count_lln():
    # 1000 cluster-trials at rate 100 over 1 s: mean count lands in [95, 105].
    counts = []
    for seed in range(250):
        wl = generate_poisson_workload(
            WorkloadShape(num_clusters=4), rate=100.0, window=1.0, seed=seed
        )
        counts.extend(len(t) for t in wl.trains.values())
    assert len(counts) == 1000
    mean = sum(counts) / len(counts)
    assert 95.0 <= mean <= 105.0


def test_poisson_edge_counts_follow_source_trains():
    shape = WorkloadShape(num_clusters=3, kind="ring")
    wl = generate_poisson_workload(shape, rate=20.0, window=1.0, seed=5)
    for e in wl.snn.edges:
        assert e.spike_count == len(wl.trains[e.src])


def test_poisson_topologies():
    chain = generate_poisson_workload(WorkloadShape(num_clusters=4), 1.0, 1.0, 0)
    assert [(e.src, e.dst) for e in chain.snn.edges] == [
        ("c0", "c1"), ("c1", "c2"), ("c2", "c3")
    ]
    ring = generate_poisson_workload(WorkloadShape(num_clusters=3, kind="ring"), 1.0, 1.0, 0)
    assert ("c2", "c0") in [(e.src, e.dst) for e in ring.snn.edges]


def test_poisson_per_cluster_rates():
    shape = WorkloadShape(num_clusters=2)
    wl = generate_poisson_workload(shape, rate=[0.0, 200.0], window=1.0, seed=3)
    assert len(wl.trains["c0"]) == 0
    assert len(wl.trains["c1"]) > 0


def test_workload_spike_totals():
    wl = generate_poisson_workload(WorkloadShape(num_clusters=2), 30.0, 1.0, 9)
    assert wl.total_spikes() == sum(len(t) for t in wl.trains.values())
    assert isinstance(wl, Workload)


def _reference_random_topology(k, edge_prob, seed):
    """The random topology drawn one scalar at a time, as first written: the
    chain backbone, then each other (i, j), i != j, in (i, j) order with one
    draw each. Returns the pairs and the generator, whose state the spike
    trains then continue from."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(k - 1)]
    backbone = set(pairs)
    for i in range(k):
        for j in range(k):
            if i != j and (i, j) not in backbone and rng.random() < edge_prob:
                pairs.append((i, j))
    return pairs, rng


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 9, 24, 48, 128]),
       st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
       st.integers(0, 2 ** 32 - 1))
def test_poisson_random_topology_equals_scalar_draws(k, edge_prob, seed):
    made = []
    default_rng = np.random.default_rng

    def recording(s):
        made.append(default_rng(s))
        return made[-1]

    shape = WorkloadShape(num_clusters=k, kind="random", edge_prob=edge_prob)
    with patch.object(np.random, "default_rng", recording):
        wl = generate_poisson_workload(shape, rate=20.0, window=1.0, seed=seed)
    pairs, rng = _reference_random_topology(k, edge_prob, seed)
    # The spike trains come next, from the same generator, in cluster order.
    counts = []
    for _ in range(k):
        counts.append(int(rng.poisson(20.0)))
        if counts[-1]:
            rng.uniform(0.0, 1.0, counts[-1])
    assert [(e.src, e.dst, e.spike_count) for e in wl.snn.edges] == \
        [(f"c{i}", f"c{j}", counts[i]) for i, j in pairs]
    generator, = made
    assert generator.bit_generator.state == rng.bit_generator.state
