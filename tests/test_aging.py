"""Tests for the per-mechanism aging kernels, combination, and calibration.

Expected values are computed by independent inline oracles (plain math formulas)
rather than by calling back into the module under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearmap.aging import (
    BOLTZMANN_EV,
    AgingParams,
    CalibrationError,
    HciParams,
    NbtiParams,
    TddbParams,
    alpha,
    calibrate_baseline,
    combine_aging,
    evaluate_hardware_aging,
    hci_aging,
    hosted_set_mechanism_agings,
    mttf_from_aging,
    nbti_aging,
    reliability_at,
    tddb_aging,
)
from wearmap.model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
    SpikeTrain,
    VoltageTrace,
    Workload,
    build_voltage_trace,
    concat_traces,
    first_fit_mapping,
)

YEAR = 365 * 24 * 3600.0


def _params(**kw) -> AgingParams:
    return AgingParams(**kw)


def _oracle_alpha(v, temp, p):
    """Independent scale-parameter formula for cross-checks."""
    t = p.tddb
    base = t.a * math.exp(-t.gamma * math.sqrt(v)) / math.gamma(1.0 + 1.0 / t.beta)
    return base * math.exp((t.ea / BOLTZMANN_EV) * (1.0 / temp - 1.0 / t.t_ref))


def _hw(profile=None, **kw):
    defaults = dict(num_tiles=2, crossbar_dim=64, temperature=300.0, tile_capacity=1)
    defaults.update(kw)
    return HardwareConfig(device_profile=profile or DeviceProfile(kind="diode_1D1R"), **defaults)


def _random_trace(rng, max_segments=12, v_lo=1.0, v_hi=4.0, d_hi=2e5):
    n = int(rng.integers(2, max_segments + 1))
    return VoltageTrace(
        (float(rng.uniform(v_lo, v_hi)), float(rng.uniform(1.0, d_hi))) for _ in range(n)
    )


# ---------------------------------------------------------------- params


def test_params_defaults():
    p = AgingParams()
    assert p.tddb.beta == 2.0
    assert p.tddb.t_ref == 300.0
    assert p.tddb.a == 1e7
    assert p.tddb.gamma == 2.0
    assert p.nbti.g0 == 1e-4
    assert p.nbti.m == 2.0
    assert p.nbti.n == 0.5
    assert p.hci.enabled is False


def test_params_validation():
    with pytest.raises(ValueError):
        TddbParams(a=0.0)
    with pytest.raises(ValueError):
        TddbParams(beta=0.0)
    with pytest.raises(ValueError):
        TddbParams(gamma=-1.0)
    with pytest.raises(ValueError):
        NbtiParams(g0=-1.0)
    with pytest.raises(ValueError):
        NbtiParams(m=0.0)
    with pytest.raises(ValueError):
        NbtiParams(v_threshold=0.0)


@pytest.mark.parametrize("ctor, field", [
    *((TddbParams, f) for f in ("a", "gamma", "beta", "ea", "t_ref")),
    *((NbtiParams, f) for f in ("g0", "m", "n", "v_threshold", "ea")),
    (HciParams, "g0"),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(ctor, field, value):
    with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
        ctor(**{field: value})


# ---------------------------------------------------------------- alpha


def test_alpha_constants_collapse_beta_one():
    p = _params(tddb=TddbParams(a=1.0, gamma=0.0, beta=1.0))
    assert math.isclose(alpha(1.0, 300.0, p), 1.0, rel_tol=1e-15)


def test_alpha_gamma_evaluation_beta_two():
    # A=1, gamma=0, beta=2: alpha = 1/Gamma(1.5) = 2/sqrt(pi).
    p = _params(tddb=TddbParams(a=1.0, gamma=0.0, beta=2.0))
    assert math.isclose(alpha(2.5, 300.0, p), 2.0 / math.sqrt(math.pi), rel_tol=1e-14)


def test_alpha_exponential_evaluation():
    # gamma=1, V=4, A=1, beta=1: alpha = e^(-2).
    p = _params(tddb=TddbParams(a=1.0, gamma=1.0, beta=1.0))
    assert math.isclose(alpha(4.0, 300.0, p), math.exp(-2.0), rel_tol=1e-14)


def test_alpha_strictly_decreasing_in_voltage_and_temperature():
    p = _params()
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = float(rng.uniform(0.5, 5.0))
        t = float(rng.uniform(250.0, 400.0))
        assert alpha(v + 0.1, t, p) < alpha(v, t, p)
        assert alpha(v, t + 5.0, p) < alpha(v, t, p)


def test_alpha_unity_arrhenius_at_reference():
    p = _params()
    got = alpha(2.0, 300.0, p)
    want = p.tddb.a * math.exp(-2.0 * math.sqrt(2.0)) / math.gamma(1.5)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_alpha_domain_errors():
    p = _params()
    with pytest.raises(ValueError):
        alpha(0.0, 300.0, p)
    with pytest.raises(ValueError):
        alpha(-1.0, 300.0, p)
    with pytest.raises(ValueError):
        alpha(1.0, 0.0, p)


# ---------------------------------------------------------------- tddb aging


def test_tddb_constant_voltage_closed_form():
    p = _params()
    trace = VoltageTrace([(2.0, 123.0)])
    assert math.isclose(tddb_aging(trace, 300.0, p), 123.0 / _oracle_alpha(2.0, 300.0, p),
                        rel_tol=1e-13)


def test_tddb_empty_trace_is_zero():
    assert tddb_aging(VoltageTrace([]), 300.0, _params()) == 0.0


def test_tddb_two_segment_sum_against_oracle():
    # (3 V, 1e5 s), (1.8 V, 9e5 s) with A=1e7, gamma=2, beta=2, T=300 K.
    # Durations chosen so R(end) is mid-range and the log round trip below is
    # well-conditioned.
    p = _params()
    trace = VoltageTrace([(3.0, 1e5), (1.8, 9e5)])
    want = 1e5 / _oracle_alpha(3.0, 300.0, p) + 9e5 / _oracle_alpha(1.8, 300.0, p)
    got = tddb_aging(trace, 300.0, p)
    assert math.isclose(got, want, rel_tol=1e-13)
    # Cross-check against the step-wise reliability recursion at trace end.
    r_end = reliability_at(trace, 1e6, 300.0, p)
    assert math.isclose((-math.log(r_end)) ** (1.0 / p.tddb.beta), got, rel_tol=1e-9)


def test_tddb_additivity_under_concat():
    rng = np.random.default_rng(21)
    p = _params()
    for _ in range(50):
        t1 = _random_trace(rng)
        t2 = _random_trace(rng)
        whole = tddb_aging(concat_traces(t1, t2), 300.0, p)
        parts = tddb_aging(t1, 300.0, p) + tddb_aging(t2, 300.0, p)
        assert math.isclose(whole, parts, rel_tol=1e-13)


def test_tddb_split_segment_additivity():
    rng = np.random.default_rng(22)
    p = _params()
    for _ in range(50):
        trace = _random_trace(rng)
        segs = list(trace.segments)
        k = int(rng.integers(0, len(segs)))
        v, d = segs[k]
        cut = float(rng.uniform(0.1, 0.9)) * d
        split = segs[:k] + [(v, cut), (v, d - cut)] + segs[k + 1:]
        assert math.isclose(
            tddb_aging(VoltageTrace(split), 300.0, p),
            tddb_aging(trace, 300.0, p),
            rel_tol=1e-12,
        )


def test_tddb_voltage_monotonicity():
    p = _params()
    rng = np.random.default_rng(23)
    for _ in range(50):
        trace = _random_trace(rng)
        segs = list(trace.segments)
        k = int(rng.integers(0, len(segs)))
        v, d = segs[k]
        raised = segs[:k] + [(v + 0.25, d)] + segs[k + 1:]
        assert tddb_aging(VoltageTrace(raised), 300.0, p) > tddb_aging(trace, 300.0, p)


# ---------------------------------------------------------------- reliability


def test_reliability_is_one_at_time_zero():
    p = _params()
    trace = VoltageTrace([(2.0, 5.0)])
    assert reliability_at(trace, 0.0, 300.0, p) == 1.0


def test_reliability_single_segment_closed_form():
    p = _params()
    trace = VoltageTrace([(2.0, 5.0)])
    a = _oracle_alpha(2.0, 300.0, p)
    want = math.exp(-((5.0 / a) ** p.tddb.beta))
    assert math.isclose(reliability_at(trace, 5.0, 300.0, p), want, rel_tol=1e-13)


def test_reliability_boundary_continuity():
    rng = np.random.default_rng(31)
    p = _params()
    for _ in range(100):
        trace = _random_trace(rng)
        bounds = np.cumsum([d for _, d in trace.segments])
        for t in bounds[:-1]:
            left = reliability_at(trace, float(t), 300.0, p, side="left")
            right = reliability_at(trace, float(t), 300.0, p, side="right")
            assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


def test_reliability_matches_partial_sum_form():
    rng = np.random.default_rng(32)
    p = _params()
    for _ in range(50):
        trace = _random_trace(rng)
        segs = trace.segments
        t_total = math.fsum(d for _, d in segs)
        t = float(rng.uniform(0.0, t_total))
        # Closed form: exp(-(sum of partial agings up to t)^beta).
        acc, cursor = 0.0, 0.0
        for v, d in segs:
            if t >= cursor + d:
                acc += d / _oracle_alpha(v, 300.0, p)
                cursor += d
            else:
                acc += (t - cursor) / _oracle_alpha(v, 300.0, p)
                break
        want = math.exp(-(acc ** p.tddb.beta))
        assert math.isclose(reliability_at(trace, t, 300.0, p), want, rel_tol=1e-11)


def test_reliability_monotone_nonincreasing():
    p = _params()
    trace = VoltageTrace([(3.0, 1e5), (1.8, 1e5), (2.4, 1e5)])
    ts = np.linspace(0.0, 3e5, 50)
    vals = [reliability_at(trace, float(t), 300.0, p) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_reliability_domain_errors():
    p = _params()
    trace = VoltageTrace([(2.0, 1.0)])
    with pytest.raises(ValueError):
        reliability_at(trace, -0.1, 300.0, p)
    with pytest.raises(ValueError):
        reliability_at(trace, 1.5, 300.0, p)


# ---------------------------------------------------------------- nbti / hci


def test_nbti_zero_at_threshold():
    p = _params()
    v = p.nbti.v_threshold
    trace = VoltageTrace([(v, 10.0), (v, 5.0)])
    assert nbti_aging(trace, 300.0, p) == 0.0


def test_nbti_unit_constants():
    p = _params(nbti=NbtiParams(g0=1.0, m=2.0, n=1.0, v_threshold=1.8))
    trace = VoltageTrace([(2.8, 1.0)])
    assert math.isclose(nbti_aging(trace, 300.0, p), 1.0, rel_tol=1e-14)


def test_nbti_segmentation_sensitivity_documented():
    # Split (gap-separated) stress vs one merged segment of double duration:
    # split sum = 2*g0*dv^m*t^0.5, merged = g0*dv^m*(2t)^0.5, ratio sqrt(2)/2.
    p = _params(nbti=NbtiParams(g0=1e-3, m=2.0, n=0.5, v_threshold=1.8))
    dv, t = 1.0, 4.0
    v = p.nbti.v_threshold + dv
    idle = p.nbti.v_threshold  # contributes zero, breaks adjacency
    split = VoltageTrace([(v, t), (idle, 1.0), (v, t)])
    merged = VoltageTrace([(v, 2 * t)])
    s = nbti_aging(split, 300.0, p)
    m_ = nbti_aging(merged, 300.0, p)
    assert math.isclose(m_ / s, math.sqrt(2.0) / 2.0, rel_tol=1e-12)
    want_split = 2 * 1e-3 * dv ** 2 * math.sqrt(t)
    assert math.isclose(s, want_split, rel_tol=1e-12)


def test_nbti_coalesces_adjacent_equal_segments():
    p = _params()
    v = p.nbti.v_threshold + 1.0
    split = VoltageTrace([(v, 2.0), (v, 2.0)])
    merged = VoltageTrace([(v, 4.0)])
    assert nbti_aging(split, 300.0, p) == nbti_aging(merged, 300.0, p)


def test_nbti_temperature_factor():
    p = _params()
    v = p.nbti.v_threshold + 1.0
    trace = VoltageTrace([(v, 3.0)])
    base = nbti_aging(trace, 300.0, p)
    want_factor = math.exp((p.nbti.ea / BOLTZMANN_EV) * (1 / 300.0 - 1 / 350.0))
    assert math.isclose(nbti_aging(trace, 350.0, p), base * want_factor, rel_tol=1e-12)


def test_nbti_weak_voltage_monotonicity():
    p = _params()
    below = VoltageTrace([(1.0, 5.0)])
    at = VoltageTrace([(p.nbti.v_threshold, 5.0)])
    above = VoltageTrace([(p.nbti.v_threshold + 0.5, 5.0)])
    higher = VoltageTrace([(p.nbti.v_threshold + 1.0, 5.0)])
    vals = [nbti_aging(t, 300.0, p) for t in (below, at, above, higher)]
    assert vals[0] == vals[1] == 0.0
    assert vals[1] < vals[2] < vals[3]


def test_hci_disabled_is_zero():
    p = _params()
    trace = VoltageTrace([(3.0, 100.0)])
    assert hci_aging(trace, 300.0, p) == 0.0


def test_hci_enabled_shares_kernel_with_nbti():
    nb = NbtiParams(g0=2e-4, m=1.5, n=0.7, v_threshold=1.5, ea=0.4)
    p = _params(
        nbti=nb,
        hci=HciParams(enabled=True, g0=nb.g0, m=nb.m, n=nb.n,
                      v_threshold=nb.v_threshold, ea=nb.ea),
    )
    trace = VoltageTrace([(3.0, 7.0), (1.2, 2.0)])
    assert hci_aging(trace, 320.0, p) == nbti_aging(trace, 320.0, p)


def test_hci_enabled_empty_trace():
    p = _params(hci=HciParams(enabled=True))
    assert hci_aging(VoltageTrace([]), 300.0, p) == 0.0


# ---------------------------------------------------------------- combine


def test_combine_all_zero():
    assert combine_aging(0.0, 0.0, 0.0, 2.0) == 0.0


def test_combine_single_mechanism_exact():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        x = float(rng.uniform(0.0, 50.0))
        assert combine_aging(x, 0.0, 0.0, 2.0) == x
        assert combine_aging(0.0, x, 0.0, 2.0) == x
        assert combine_aging(0.0, 0.0, x, 2.0) == x


def test_combine_two_mechanisms_frozen_value():
    # (1, 1, 0) at beta=2: (ln(2e - 1))^0.5 = 1.2206064581365894.
    got = combine_aging(1.0, 1.0, 0.0, 2.0)
    want = math.sqrt(math.log(2.0 * math.e - 1.0))
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(got, 1.2206064581365894, rel_tol=1e-15)


def test_combine_large_values_stable():
    got = combine_aging(30.0, 30.0, 30.0, 2.0)
    want = math.sqrt(900.0 + math.log(3.0))
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isfinite(combine_aging(1e3, 1e3, 1e3, 2.0))


def test_combine_small_values_accurate():
    a = 1e-9
    got = combine_aging(a, a, a, 2.0)
    # ln(3e^(a^2) - 2) ~ 3a^2 for tiny a, so the result ~ a*sqrt(3).
    assert math.isclose(got, a * math.sqrt(3.0), rel_tol=1e-6)


def test_combine_at_least_max_and_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(200):
        xs = [float(v) for v in rng.uniform(0.0, 5.0, 3)]
        res = combine_aging(*xs, 2.0)
        assert res >= max(xs) * (1 - 1e-12)
        perm = [xs[2], xs[0], xs[1]]
        assert combine_aging(*perm, 2.0) == res


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("x", [0.0, 1e-9, 1.0, 800.0, 1e300])
def test_combine_infinite_mechanism_is_infinite(x, beta):
    # The large-z branch used to subtract inf from inf and return NaN.
    assert combine_aging(math.inf, x, 0.0, beta) == math.inf
    assert combine_aging(x, 0.0, math.inf, beta) == math.inf
    assert combine_aging(math.inf, math.inf, x, beta) == math.inf


def test_combine_power_past_the_floats_returns_largest():
    # 1e200^2 raised OverflowError; ln(e^z + ...) equals z to double precision
    # there, so the combined aging is the largest mechanism's.
    assert combine_aging(1e200, 1.0, 0.0, 2.0) == 1e200
    assert combine_aging(1e-3, 1e200, 1e199, 2.0) == 1e200
    assert combine_aging(1e150, 1e150, 0.0, 2.0) == pytest.approx(1e150, rel=1e-15)


def test_combine_rejects_negative():
    with pytest.raises(ValueError):
        combine_aging(-1.0, 0.0, 0.0, 2.0)


# ---------------------------------------------------------------- mttf


def test_mttf_weibull_mean_beta_two():
    # Window-normalized aging of 1.0 at beta=2 over a 1-year window.
    got = mttf_from_aging(1.0, YEAR, 2.0)
    assert math.isclose(got, math.gamma(1.5) * YEAR, rel_tol=1e-14)
    assert math.isclose(got / YEAR, 0.8862269254527580, rel_tol=1e-13)


def test_mttf_beta_one():
    assert math.isclose(mttf_from_aging(1.0, 1.0, 1.0), 1.0, rel_tol=1e-15)


def test_mttf_scale_linearity():
    a = mttf_from_aging(1.0, 100.0, 2.0)
    b = mttf_from_aging(2.0, 100.0, 2.0)
    assert math.isclose(a, 2.0 * b, rel_tol=1e-14)


def test_mttf_zero_aging_sentinel():
    assert mttf_from_aging(0.0, 1.0, 2.0) == math.inf


def test_mttf_domain_errors():
    with pytest.raises(ValueError):
        mttf_from_aging(-1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        mttf_from_aging(1.0, 0.0, 2.0)


# ---------------------------------------------------------------- hardware report


def _workload_two_cluster_chain(spikes0, spikes1, window=1.0):
    snn = ClusteredSnn(
        clusters=[Cluster("c0", 4, 8), Cluster("c1", 4, 8)],
        edges=[Edge("c0", "c1", len(spikes0))],
        workload_window=window,
    )
    trains = {"c0": SpikeTrain(spikes0), "c1": SpikeTrain(spikes1)}
    return Workload(snn=snn, trains=trains)


def test_hardware_aging_single_cluster_matches_trace_oracle():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    hw = _hw(profile=profile, num_tiles=1)
    p = _params()
    snn = ClusteredSnn([Cluster("only", 4, 8)], [], workload_window=1.0)
    train = SpikeTrain([0.1, 0.4, 0.8])
    wl = Workload(snn=snn, trains={"only": train})
    report = evaluate_hardware_aging(wl, Mapping([0]), hw, p)

    trace = build_voltage_trace(train, profile, 1.0)
    want = combine_aging(
        tddb_aging(trace, 300.0, p),
        nbti_aging(trace, 300.0, p),
        hci_aging(trace, 300.0, p),
        p.tddb.beta,
    )
    assert report.hardware == want
    assert report.per_tile[0] == want
    assert report.per_neuron["only"].overall == want
    assert math.isclose(report.mttf, mttf_from_aging(want, 1.0, p.tddb.beta), rel_tol=1e-15)


def test_hardware_aging_max_dominance():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    hw = _hw(profile=profile, num_tiles=2)
    p = _params()
    snn = ClusteredSnn([Cluster("busy", 4, 8), Cluster("calm", 4, 8)], [], 1.0)
    wl = Workload(
        snn=snn,
        trains={"busy": SpikeTrain(np.linspace(0.0, 0.9, 40)), "calm": SpikeTrain([0.5])},
    )
    report = evaluate_hardware_aging(wl, Mapping([0, 1]), hw, p)
    assert report.per_tile[0] > report.per_tile[1]
    assert report.hardware == report.per_tile[0]


def test_hardware_aging_chain_composes_from_module_oracles():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    hw = _hw(profile=profile, num_tiles=2)
    p = _params()
    s0 = [0.1, 0.3, 0.5]
    s1 = [0.2, 0.6]
    wl = _workload_two_cluster_chain(s0, s1)
    report = evaluate_hardware_aging(wl, Mapping([0, 1]), hw, p)

    def overall(times):
        tr = build_voltage_trace(SpikeTrain(times), profile, 1.0)
        return combine_aging(
            tddb_aging(tr, 300.0, p), nbti_aging(tr, 300.0, p), hci_aging(tr, 300.0, p),
            p.tddb.beta,
        )

    # Tile 0 hosts c0 (no predecessors): stressed by c0's own spikes.
    # Tile 1 hosts c1, predecessor c0: stressed by the union of both trains.
    assert math.isclose(report.per_tile[0], overall(s0), rel_tol=1e-15)
    assert math.isclose(report.per_tile[1], overall(sorted(s0 + s1)), rel_tol=1e-15)


def test_hardware_aging_colocation_shares_circuit():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    hw = _hw(profile=profile, num_tiles=2, tile_capacity=2)
    p = _params()
    snn = ClusteredSnn([Cluster("a", 4, 8), Cluster("b", 4, 8)], [], 1.0)
    ta, tb = [0.1, 0.2], [0.5, 0.7]
    wl = Workload(snn=snn, trains={"a": SpikeTrain(ta), "b": SpikeTrain(tb)})

    together = evaluate_hardware_aging(wl, Mapping([0, 0]), hw, p)
    apart = evaluate_hardware_aging(wl, Mapping([0, 1]), hw, p)
    # Stacked activity on one shared circuit ages faster than either alone.
    assert together.hardware > apart.hardware
    assert together.per_neuron["a"].overall == together.per_neuron["b"].overall


def test_hardware_aging_unstressed_tiles_are_zero():
    hw = _hw(num_tiles=2)
    p = _params()
    snn = ClusteredSnn([Cluster("quiet", 4, 8)], [], 1.0)
    wl = Workload(snn=snn, trains={"quiet": SpikeTrain([])})
    report = evaluate_hardware_aging(wl, Mapping([0]), hw, p)
    assert report.hardware == 0.0
    assert report.per_tile == {0: 0.0, 1: 0.0}
    assert report.per_neuron["quiet"].overall == 0.0
    assert report.mttf == math.inf


def test_hardware_aging_report_invariants():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    hw = HardwareConfig(num_tiles=4, crossbar_dim=64, device_profile=profile,
                        tile_capacity=2)
    p = _params()
    rng = np.random.default_rng(51)
    clusters = [Cluster(f"c{i}", 4, 8) for i in range(6)]
    edges = [Edge("c0", "c3", 3), Edge("c1", "c4", 2), Edge("c2", "c2", 1)]
    snn = ClusteredSnn(clusters, edges, 1.0)
    trains = {c.id: SpikeTrain(rng.uniform(0, 1, int(rng.integers(1, 20))))
              for c in clusters}
    wl = Workload(snn=snn, trains=trains)
    report = evaluate_hardware_aging(wl, Mapping([0, 0, 1, 1, 2, 3]), hw, p)

    assert report.hardware == max(report.per_tile.values())
    for n in report.per_neuron.values():
        assert 0.0 <= n.tddb and 0.0 <= n.nbti and 0.0 <= n.hci
        assert n.overall <= report.per_tile[n.tile]
    for tile in range(hw.num_tiles):
        members = [n.overall for n in report.per_neuron.values() if n.tile == tile]
        if members:
            assert report.per_tile[tile] == max(members)
        else:
            assert report.per_tile[tile] == 0.0


def test_hardware_aging_invalid_mapping_raises():
    hw = _hw(num_tiles=2)
    wl = _workload_two_cluster_chain([0.1], [0.2])
    with pytest.raises(MappingConstraintError):
        evaluate_hardware_aging(wl, Mapping([0, 0]), hw, _params())  # capacity 1


def test_hardware_aging_temperature_trend_end_to_end():
    profile = DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3)
    p = _params()
    wl = _workload_two_cluster_chain([0.1, 0.5], [0.3])
    agings = []
    for temp in (300.0, 325.0, 350.0):
        hw = _hw(profile=profile, num_tiles=2, temperature=temp)
        agings.append(evaluate_hardware_aging(wl, Mapping([0, 1]), hw, p).hardware)
    assert agings[0] < agings[1] < agings[2]


def test_hardware_aging_device_trend():
    p = _params()
    wl = _workload_two_cluster_chain([0.1, 0.5], [0.3])
    diode = _hw(profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3))
    trans = _hw(profile=DeviceProfile(kind="transistor_1T1R", spike_pulse_width=1e-3))
    a_d = evaluate_hardware_aging(wl, Mapping([0, 1]), diode, p).hardware
    a_t = evaluate_hardware_aging(wl, Mapping([0, 1]), trans, p).hardware
    assert a_t < a_d


# ---------------------------------------------------------------- pulse-run kernel


@st.composite
def _hosted_set_case(draw):
    """A small workload, one hosted member set and the parameters to age it by.

    Spike times are drawn relative to the pulse width, so that pulses overlap,
    touch (t + pulse_width exactly) and run into the window end; trains may be
    empty, and v_threshold may sit below v_idle so that idle time stresses too.
    """
    kind = draw(st.sampled_from(["diode_1D1R", "transistor_1T1R"]))
    pulse = draw(st.floats(1e-6, 0.3))
    window = draw(st.sampled_from([1.0, 0.37, 2.5]))
    profile = DeviceProfile(kind=kind, spike_pulse_width=pulse)
    k = draw(st.integers(1, 4))
    ids = [f"c{i}" for i in range(k)]
    trains = {}
    for cid in ids:
        base = draw(st.lists(st.floats(0.0, window, exclude_max=True), max_size=12))
        follow = draw(st.lists(st.tuples(st.sampled_from(base or [0.0]),
                                         st.sampled_from([0.5, 1.0, 1.5])), max_size=6))
        late = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        times = (base + [t + f * pulse for t, f in follow]
                 + [window - u * pulse for u in late])
        trains[cid] = SpikeTrain(t for t in times if 0.0 <= t < window)
    edges = [Edge(a, b, 1) for a in ids for b in ids if draw(st.booleans())]
    members = draw(st.sets(st.integers(0, k - 1), min_size=1))
    temperature = draw(st.floats(250.0, 400.0))
    p = AgingParams(
        nbti=NbtiParams(v_threshold=draw(st.sampled_from([0.5, 1.0, 1.5, 1.8, 2.5]))),
        hci=HciParams(enabled=draw(st.booleans()), m=2.5, n=0.3,
                      v_threshold=draw(st.sampled_from([1.0, 1.5, 2.9]))),
    )
    wl = Workload(snn=ClusteredSnn([Cluster(c, 4, 8) for c in ids], edges, window),
                  trains=trains)
    hw = _hw(profile=profile, num_tiles=1, tile_capacity=k, temperature=temperature)
    return wl, frozenset(members), hw, p


@settings(max_examples=200, deadline=None)
@given(_hosted_set_case())
def test_kernel_is_bit_identical_to_trace_path(case):
    wl, members, hw, p = case
    sources = {wl.snn.clusters[i].id for i in members}
    sources |= {e.src for e in wl.snn.edges if e.dst in sources}
    union = SpikeTrain(np.concatenate([wl.trains[c].times for c in sorted(sources)]))
    got = hosted_set_mechanism_agings(members, wl, hw, p)
    if len(union) == 0:
        assert got == (0.0, 0.0, 0.0)
        return
    tr = build_voltage_trace(union, hw.device_profile, wl.snn.workload_window)
    t = hw.temperature
    assert got == (tddb_aging(tr, t, p), nbti_aging(tr, t, p), hci_aging(tr, t, p))


def test_kernel_keeps_trace_path_failures():
    snn = ClusteredSnn([Cluster("a", 4, 8)], [], 2.0)
    hw = _hw(profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-17),
             num_tiles=1)
    # 1.0 + 1e-17 == 1.0: the pulse has no length, as in build_voltage_trace
    wl = Workload(snn=snn, trains={"a": SpikeTrain([1.0])})
    with pytest.raises(ValueError, match="durations must be > 0"):
        hosted_set_mechanism_agings({0}, wl, hw, _params())
    with pytest.raises(ValueError, match="durations must be > 0"):
        build_voltage_trace(wl.trains["a"], hw.device_profile, 2.0)
    late = Workload(snn=snn, trains={"a": SpikeTrain([0.5, 2.0])})
    with pytest.raises(ValueError, match=r"\[0, window\)"):
        hosted_set_mechanism_agings({0}, late, _hw(num_tiles=1), _params())


# ---------------------------------------------------------------- calibration


def _calibration_workload():
    rng = np.random.default_rng(61)
    clusters = [Cluster(f"c{i}", 4, 8) for i in range(3)]
    edges = [Edge("c0", "c1", 10), Edge("c1", "c2", 10)]
    snn = ClusteredSnn(clusters, edges, 1.0)
    trains = {c.id: SpikeTrain(rng.uniform(0, 1, 15)) for c in clusters}
    return Workload(snn=snn, trains=trains)


def test_calibrate_hits_two_year_target():
    wl = _calibration_workload()
    hw = _hw(num_tiles=4, tile_capacity=1,
             profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3))
    baseline = first_fit_mapping(wl.snn, hw)
    target = 2.0 * YEAR
    fitted = calibrate_baseline(wl, baseline, hw, _params(), target)
    report = evaluate_hardware_aging(wl, baseline, hw, fitted)
    assert abs(report.mttf - target) <= 1e-3 * target


def test_calibrate_fixed_point():
    wl = _calibration_workload()
    hw = _hw(num_tiles=4, profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3))
    baseline = first_fit_mapping(wl.snn, hw)
    target = 2.0 * YEAR
    fitted = calibrate_baseline(wl, baseline, hw, _params(), target)
    refit = calibrate_baseline(wl, baseline, hw, fitted, target)
    assert math.isclose(refit.tddb.a, fitted.tddb.a, rel_tol=1e-6)
    assert math.isclose(refit.nbti.g0, fitted.nbti.g0, rel_tol=1e-6)


def test_calibrate_doubled_target_pure_tddb():
    wl = _calibration_workload()
    hw = _hw(num_tiles=4, profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3))
    baseline = first_fit_mapping(wl.snn, hw)
    p = _params(nbti=NbtiParams(g0=0.0))
    one = calibrate_baseline(wl, baseline, hw, p, YEAR)
    two = calibrate_baseline(wl, baseline, hw, p, 2.0 * YEAR)
    m1 = evaluate_hardware_aging(wl, baseline, hw, one).mttf
    m2 = evaluate_hardware_aging(wl, baseline, hw, two).mttf
    assert math.isclose(m2, 2.0 * m1, rel_tol=1e-3)
    assert math.isclose(two.tddb.a, 2.0 * one.tddb.a, rel_tol=1e-3)


def test_calibrate_zero_stress_errors():
    snn = ClusteredSnn([Cluster("c0", 4, 8)], [], 1.0)
    wl = Workload(snn=snn, trains={"c0": SpikeTrain([])})
    hw = _hw(num_tiles=1)
    with pytest.raises(CalibrationError):
        calibrate_baseline(wl, Mapping([0]), hw, _params(), 2.0 * YEAR)


def test_calibrate_scales_all_mechanisms_proportionally():
    wl = _calibration_workload()
    hw = _hw(num_tiles=4, profile=DeviceProfile(kind="diode_1D1R", spike_pulse_width=1e-3))
    baseline = first_fit_mapping(wl.snn, hw)
    p = _params(hci=HciParams(enabled=True))
    fitted = calibrate_baseline(wl, baseline, hw, p, 2.0 * YEAR)
    s = fitted.tddb.a / p.tddb.a
    assert math.isclose(fitted.nbti.g0, p.nbti.g0 / s, rel_tol=1e-12)
    assert math.isclose(fitted.hci.g0, p.hci.g0 / s, rel_tol=1e-12)
    assert fitted.hci.enabled is True
