"""Wear mechanisms for crossbar circuits driven by spike-pulse voltage traces.

Three mechanisms are modelled. Dielectric breakdown (TDDB) accumulates
normalized Weibull aging: each trace segment contributes duration over the
voltage- and temperature-dependent scale parameter alpha(V, T). Bias
instability (NBTI) and hot-carrier stress (HCI) share a power-law strain
kernel over the threshold-exceeding voltage. Mechanism agings combine through
a sum-of-failure-rates reduction that preserves a lone mechanism exactly, and
the combined aging converts to MTTF through the Weibull mean.

A tile's circuits (driver, charge pump, shared lines) see the union of spike
activity of every cluster placed on it plus every predecessor cluster that
sends spikes into it, so placement changes stress. A tile whose union trace
carries no pulses is unstressed and does not age.

Two paths compute a tile's mechanism agings. hosted_set_mechanism_agings, the
kernel that search and reports call, works directly on the pulse runs and idle
gaps of the union in one NumPy pass, and sums each mechanism's terms, one
float64 array, with _exact_sum: two NumPy sums that are exact, whose one
final addition rounds the total as fsum does. The trace path
(build_voltage_trace, then tddb_aging / nbti_aging / hci_aging on the
VoltageTrace) is its reference, and keeps its plain fsum over a list: the
kernel evaluates the same per-segment terms, and both sums round the exact
total of those terms once, in any order, so the two agree bit for bit.
reliability_at also takes a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Collection, Iterable

import numpy as np

from .model import (
    DeviceProfile,
    HardwareConfig,
    Mapping,
    VoltageTrace,
    Workload,
    build_voltage_trace,  # noqa: F401  (re-exported: builds the reference path's traces)
    require_valid_mapping,
)

BOLTZMANN_EV = 8.617e-5  # eV / K


def _require_finite(params, prefix: str, names: tuple[str, ...]) -> None:
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{prefix}{name} must be finite")


@dataclass(frozen=True)
class TddbParams:
    """Dielectric breakdown: Weibull scale alpha = A e^(-gamma sqrt(V)) / Gamma(1+1/beta),
    shifted by Arrhenius acceleration away from t_ref."""

    a: float = 1e7
    gamma: float = 2.0
    beta: float = 2.0
    ea: float = 0.5
    t_ref: float = 300.0

    def __post_init__(self) -> None:
        _require_finite(self, "tddb ", ("a", "gamma", "beta", "ea", "t_ref"))
        if self.a <= 0.0:
            raise ValueError("tddb a must be > 0")
        if self.gamma < 0.0:
            raise ValueError("tddb gamma must be >= 0")
        if self.beta <= 0.0:
            raise ValueError("tddb beta must be > 0")
        if self.ea < 0.0:
            raise ValueError("tddb ea must be >= 0")
        if self.t_ref <= 0.0:
            raise ValueError("tddb t_ref must be > 0 K")


@dataclass(frozen=True)
class NbtiParams:
    """Bias instability: g0(T) (V - v_threshold)^m t^n per stressed segment."""

    g0: float = 1e-4
    m: float = 2.0
    n: float = 0.5
    v_threshold: float = 1.8
    ea: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self, "", ("g0", "m", "n", "v_threshold", "ea"))
        if self.g0 < 0.0:
            raise ValueError("g0 must be >= 0")
        if self.m <= 0.0:
            raise ValueError("m must be > 0")
        if self.n <= 0.0:
            raise ValueError("n must be > 0")
        if self.v_threshold <= 0.0:
            raise ValueError("v_threshold must be > 0")
        if self.ea < 0.0:
            raise ValueError("ea must be >= 0")


@dataclass(frozen=True)
class HciParams(NbtiParams):
    """Hot-carrier stress: same kernel as NBTI, off unless explicitly enabled."""

    enabled: bool = False


@dataclass(frozen=True)
class AgingParams:
    tddb: TddbParams = field(default_factory=TddbParams)
    nbti: NbtiParams = field(default_factory=NbtiParams)
    hci: HciParams = field(default_factory=HciParams)


def _alpha_array(voltages: np.ndarray, temperature: float, t: TddbParams) -> np.ndarray:
    """Vectorized Weibull scale. The scalar alpha() delegates here so that every
    code path evaluates the identical floating-point expression."""
    base = t.a * np.exp(-t.gamma * np.sqrt(voltages)) / math.gamma(1.0 + 1.0 / t.beta)
    arrhenius = math.exp((t.ea / BOLTZMANN_EV) * (1.0 / temperature - 1.0 / t.t_ref))
    return base * arrhenius


def alpha(v: float, temperature: float, p: AgingParams) -> float:
    """Characteristic life of the dielectric at a constant operating point."""
    if v <= 0.0:
        raise ValueError("voltage must be > 0")
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0 K")
    return float(_alpha_array(np.asarray([v], dtype=np.float64), temperature, p.tddb)[0])


def tddb_aging(trace: VoltageTrace, temperature: float, p: AgingParams) -> float:
    """Normalized breakdown aging of one trace: sum of duration / alpha per segment.

    Additive under any segment split or trace concatenation; fsum keeps it so
    down to rounding of the individual terms.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0 K")
    if len(trace) == 0:
        return 0.0
    a = _alpha_array(trace.voltages, temperature, p.tddb)
    return math.fsum((trace.durations / a).tolist())


def reliability_at(
    trace: VoltageTrace,
    t: float,
    temperature: float,
    p: AgingParams,
    side: str = "right",
) -> float:
    """Survival probability R(t) under the stepwise stress history.

    Within a segment the Weibull clock runs at that segment's alpha; crossing a
    boundary rescales the accumulated equivalent time by alpha_next / alpha_prev
    so R is continuous. side selects which segment's clock evaluates a query
    that lands exactly on an internal boundary ("left" the ending segment,
    "right" the starting one); both give the same value up to rounding.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0 K")
    span = trace.span
    if t < 0.0 or t > span * (1.0 + 1e-12):
        raise ValueError(f"t={t} outside trace span [0, {span}]")
    if t == 0.0 or len(trace) == 0:
        return 1.0

    beta = p.tddb.beta
    alphas = _alpha_array(trace.voltages, temperature, p.tddb)
    durations = trace.durations.tolist()
    n = len(durations)
    tau = 0.0  # equivalent stress time, expressed in the current segment's clock
    elapsed = 0.0
    for i, d in enumerate(durations):
        end = elapsed + d
        if t < end or (side == "left" and t == end) or i == n - 1:
            x = min(t, end) - elapsed
            return math.exp(-(((tau + x) / alphas[i]) ** beta))
        tau = (tau + d) * (alphas[i + 1] / alphas[i])
        elapsed = end
    raise AssertionError("unreachable")


def strain_prefactor(g: NbtiParams, temperature: float, t_ref: float) -> float:
    """g0(T): the NBTI/HCI prefactor with its Arrhenius acceleration away from
    t_ref. Raises OverflowError where the acceleration leaves the floats."""
    return g.g0 * math.exp((g.ea / BOLTZMANN_EV) * (1.0 / t_ref - 1.0 / temperature))


def _strain_aging(trace: VoltageTrace, temperature: float, g: NbtiParams,
                  t_ref: float) -> float:
    """Shared NBTI/HCI kernel. Adjacent equal-voltage segments are coalesced
    first: the t^n law is sublinear, so segmentation would otherwise change
    the result. Segments at or below v_threshold contribute nothing; each
    stressed segment adds g0(T) (V - v_threshold)^m d^n."""
    if g.g0 == 0.0 or len(trace) == 0:
        return 0.0
    merged = trace.merged()
    over = merged.voltages - g.v_threshold
    mask = over > 0.0
    if not mask.any():
        return 0.0
    terms = (strain_prefactor(g, temperature, t_ref) * over[mask] ** g.m
             * merged.durations[mask] ** g.n)
    return math.fsum(terms.tolist())


def nbti_aging(trace: VoltageTrace, temperature: float, p: AgingParams) -> float:
    """Bias-instability aging of one trace."""
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0 K")
    return _strain_aging(trace, temperature, p.nbti, p.tddb.t_ref)


def hci_aging(trace: VoltageTrace, temperature: float, p: AgingParams) -> float:
    """Hot-carrier aging of one trace. Zero unless p.hci.enabled."""
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0 K")
    if not p.hci.enabled:
        return 0.0
    return _strain_aging(trace, temperature, p.hci, p.tddb.t_ref)


def combine_aging(a_tddb: float, a_nbti: float, a_hci: float, beta: float) -> float:
    """Reduce per-mechanism agings to one effective aging.

    Failure rates add: A = (ln(sum_k e^(A_k^beta) - (K-1)))^(1/beta) over the
    K = 3 mechanism slots. Zero slots contribute e^0 = 1 and cancel against the
    -(K-1), so a single active mechanism passes through exactly (returned
    as-is, no round trip). expm1/log1p carry the small-aging regime and a
    factored form the large one. An infinite mechanism makes the result
    infinite, and once the largest A^beta leaves the floats the log term (at
    most ln K) vanishes against it, so the largest aging is returned.
    """
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    vals = (float(a_tddb), float(a_nbti), float(a_hci))
    if any(v < 0.0 for v in vals):
        raise ValueError("aging values must be >= 0")
    active = sorted(v for v in vals if v > 0.0)
    if not active:
        return 0.0
    if len(active) == 1 or math.isinf(active[-1]):
        return active[-1]
    try:
        z = [v ** beta for v in active]
    except OverflowError:
        return active[-1]
    zmax = z[-1]
    if zmax < 700.0:
        ln_sum = math.log1p(math.fsum(math.expm1(zi) for zi in z))
    else:
        k = len(z)
        ln_sum = zmax + math.log(
            math.fsum(math.exp(zi - zmax) for zi in z) - (k - 1) * math.exp(-zmax)
        )
    return ln_sum ** (1.0 / beta)


def mttf_from_aging(aging: float, window: float, beta: float) -> float:
    """Weibull mean life for a window-normalized aging rate.

    aging is the damage accrued over one workload window; the scale of the
    life distribution is window / aging, and the mean adds Gamma(1 + 1/beta).
    Zero aging means the circuit never fails: +inf.
    """
    if aging < 0.0:
        raise ValueError("aging must be >= 0")
    if window <= 0.0:
        raise ValueError("window must be > 0")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if aging == 0.0:
        return math.inf
    return (window / aging) * math.gamma(1.0 + 1.0 / beta)


@dataclass(frozen=True)
class NeuronAging:
    """Aging attributed to one cluster's neurons via the circuits of its tile."""

    tile: int
    tddb: float
    nbti: float
    hci: float
    overall: float


@dataclass(frozen=True)
class AgingReport:
    """Hardware aging of one mapped workload over one window.

    per_neuron is keyed by cluster id; clusters sharing a tile share that
    tile's circuit stress and therefore its values. hardware is the max over
    tiles (series system: first tile failure is a hardware failure).
    """

    per_neuron: dict[str, NeuronAging]
    per_tile: dict[int, float]
    hardware: float
    mttf: float


def hosted_set_mechanism_agings(
    members: Collection[int],
    workload: Workload,
    hw: HardwareConfig,
    p: AgingParams,
) -> tuple[float, float, float]:
    """(tddb, nbti, hci) aging of a tile hosting exactly `members` (cluster indices).

    The tile's circuits see the pulse union of the hosted clusters' spike
    trains and those of their predecessors (spikes arrive through the shared
    drivers). Depends only on the member set, never on which tile hosts it,
    so EvalContext caches it per set. No pulses means no stress.

    Works on pulse runs (maximal overlapping or touching pulses, truncated at
    the window) and the idle gaps between them, in one NumPy pass. These are
    exactly the segments of build_voltage_trace's waveform of the union. Each
    mechanism's terms, the trace path's terms in another order, are one
    float64 array that _exact_sum rounds as fsum does, exactly in any order,
    so the result is bit-identical to tddb_aging / nbti_aging / hci_aging on
    that trace, the reference this kernel is tested against.
    """
    if not members:
        return (0.0, 0.0, 0.0)
    snn = workload.snn
    sources: set[int] = set(members)
    for ci in members:
        sources |= snn.predecessor_sets[ci]
    # Each train is sorted. A time that repeats across trains is left in: the
    # pulse at its second copy starts no later than the first one ends, so it
    # never starts a run and the runs below are those of the distinct times.
    times = np.concatenate(
        [workload.trains[snn.clusters[ci].id].times for ci in sorted(sources)]
    )
    if times.size == 0:
        return (0.0, 0.0, 0.0)
    times.sort()
    window = snn.workload_window
    if times[-1] >= window:
        raise ValueError("spike times must lie within [0, window)")

    profile = hw.device_profile
    hi = times + profile.spike_pulse_width
    np.minimum(hi, window, out=hi)
    # A pulse joins the run before it unless it starts after that run's end;
    # pulse ends are non-decreasing, so a run ends where its last pulse ends.
    edge = np.empty(times.size, dtype=bool)
    edge[0] = True
    np.greater(times[1:], hi[:-1], out=edge[1:])  # first pulse of each run
    starts = times[edge]
    edge[:-1] = edge[1:]
    edge[-1] = True  # last pulse of each run
    ends = hi[edge]
    active = ends - starts
    if active.min() <= 0.0:
        raise ValueError("segment durations must be > 0")
    # One array of segment durations: the pulse runs, then the idle gaps.
    # Gaps between runs are always > 0; the leading and trailing gaps only
    # exist when the first run starts after 0 or the last ends before window.
    runs = active.size
    segments = np.concatenate((active, starts[1:] - ends[:-1],
                               [g for g in (starts[0], window - ends[-1]) if g > 0.0]))

    (a_active, a_idle), strain = _run_constants(profile, hw.temperature, p)
    tddb = segments / a_idle
    np.divide(active, a_active, out=tddb[:runs])
    return (_exact_sum(tddb), *(
        _run_strain_sum(segments, runs, n, c_active, c_idle)
        for n, c_active, c_idle in strain
    ))


def hosted_set_aging_bounds(
    member_sets: Iterable[Collection[int]],
    workload: Workload,
    hw: HardwareConfig,
    p: AgingParams,
) -> np.ndarray:
    """Upper bounds on combine_aging(*hosted_set_mechanism_agings(members, ...))
    for each of member_sets, from one count per set: the spikes N of its source
    union (members and predecessors), duplicates across trains counted, which
    is the length of the kernel's concatenated times. A set with no spikes
    gets exactly 0.0, its aging, and a bound that is not finite comes back as
    inf. Raises ValueError, as the kernel does, for a set whose sources spike
    outside [0, window): the bounds assume they do not.

    Why they hold. Let W be the window, w the pulse width and u = ulp(W). The
    kernel's durations are float differences of values in [0, W], each within
    u/2 of the real one.
    - The pulse runs and idle gaps tile [0, W] exactly before rounding, and
      there are at most 2N rounded ones, so any of their sums is at most
      W' = W + (N + 2) u. There are R <= N runs and at most N + 1 gaps.
    - A pulse ends at most u/2 past t + w, and a run of m pulses starts each
      pulse no later than the previous one ends, so it lasts at most
      m (w + u/2) + u/2 <= m (w + 2u). The runs sum to at most
      A = min(W', N (w + 2u)).
    - TDDB sums d / alpha: at most A / alpha_active + W' / alpha_idle.
    - A strain mechanism sums c d^n over k segments of total D. For n >= 1,
      d^n is superadditive, so the sum is at most c D^n. For n < 1, the power
      mean gives c k^(1-n) D^n. So c_active N^max(0, 1-n) A^n bounds the
      runs, and c_idle (N + 1)^max(0, 1-n) W'^n the gaps; a coefficient of
      None adds nothing, as in the kernel.
    - combine_aging returns (ln(1 + sum_k (e^x_k - 1)))^(1/beta) with
      x_k = A_k^beta, or a lone mechanism as it is, which is no more. Since
      e^x - 1 <= x e^x and ln(1 + y) <= y, this is at most
      (e^max(x) sum(x))^(1/beta), which grows with every A_k.
    - Rounding. While they stay normal, the kernel's terms, its sums (each
      rounded once), combine_aging's steps and this function's own are all
      within a few ulps, relative; the factor 1 + 1e-6 covers them. A
      subnormal result rounds by up to 2^-1075 absolutely, and a strain
      coefficient c can scale that: each mechanism bound gets
      (2N + 2) 2^-1074 (1 + its coefficients) added for the kernel's terms
      and sum, and sum(x) gets 2^-1000 for combine_aging's x_k and its sum.
    """
    snn = workload.snn
    window = snn.workload_window
    trains = [workload.trains[c.id].times for c in snn.clusters]
    lengths, ends = [t.size for t in trains], [t[-1] if t.size else 0.0 for t in trains]
    counts = []
    for members in member_sets:
        sources = set(members)
        for ci in members:
            sources |= snn.predecessor_sets[ci]
        if any(ends[ci] >= window for ci in sources):
            raise ValueError("spike times must lie within [0, window)")
        counts.append(sum(lengths[ci] for ci in sources))
    count = np.asarray(counts, dtype=np.float64)
    ulp = math.ulp(window)
    tiny = (2.0 * count + 2.0) * 2.0 ** -1074
    (a_active, a_idle), strain = _run_constants(hw.device_profile, hw.temperature, p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        span = window + (count + 2.0) * ulp
        active = np.minimum(span, count * (hw.device_profile.spike_pulse_width + 2.0 * ulp))
        mechanisms = [active / a_active + span / a_idle + tiny]
        for n, c_active, c_idle in strain:
            if c_active is None:
                continue
            spread = max(0.0, 1.0 - n)
            bound = c_active * count ** spread * active ** n + tiny * (1.0 + c_active)
            if c_idle is not None:
                bound += c_idle * (count + 1.0) ** spread * span ** n + tiny * c_idle
            mechanisms.append(bound)
        beta = p.tddb.beta
        x = [m ** beta for m in mechanisms]
        bounds = (np.exp(np.maximum.reduce(x)) * sum(x) + 2.0 ** -1000) ** (1.0 / beta)
        bounds *= 1.0 + 1e-6
    bounds[~np.isfinite(bounds)] = math.inf
    bounds[count == 0.0] = 0.0
    return bounds


@lru_cache(maxsize=16)
def _run_constants(profile: DeviceProfile, temperature: float, p: AgingParams):
    """The kernel's per-voltage constants, once per (device, temperature,
    parameters): alpha at (v_active, v_idle), and for NBTI and HCI (n, c at
    v_active, c at v_idle) with c = g0(T) (V - v_threshold)^m, the factor of
    d^n in the trace path's _strain_aging. c is None where V - v_threshold
    <= 0 or the mechanism is off or has g0 = 0. Raises OverflowError where
    strain_prefactor does."""
    alphas = tuple(_alpha_array(
        np.asarray([profile.v_active, profile.v_idle]), temperature, p.tddb
    ).tolist())
    strain = []
    for g, on in ((p.nbti, True), (p.hci, p.hci.enabled)):
        coefficients = [None, None]
        if on and g.g0 != 0.0:
            for i, v in enumerate((profile.v_active, profile.v_idle)):
                if v - g.v_threshold > 0.0:
                    coefficients[i] = (strain_prefactor(g, temperature, p.tddb.t_ref)
                                       * np.asarray([v - g.v_threshold]) ** g.m).item()
        strain.append((g.n, *coefficients))
    return alphas, tuple(strain)


def _run_strain_sum(segments: np.ndarray, runs: int, n: float,
                    c_active: float | None, c_idle: float | None) -> float:
    """The exact sum (_exact_sum) of c d^n over the pulse runs (the first
    `runs` segments, c_active) and the idle gaps (c_idle), skipping a c of
    None; c_idle is None whenever c_active is, since v_active > v_idle. Runs
    and gaps alternate, so there is nothing to coalesce."""
    if c_active is None:
        return 0.0
    if c_idle is None:
        terms = segments[:runs] ** n
    else:
        terms = segments ** n
        terms[runs:] *= c_idle
    terms[:runs] *= c_active
    return _exact_sum(terms)


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum of a non-empty float64 array, bit for bit, from two NumPy
    sums that are exact (exponent-binned summation, Demmel & Hida, SIAM J.
    Sci. Comput. 2003).

    For n terms let limb = 53 - n.bit_length(), and let 2^e be the last bit of
    the smallest term. In units of 2^e every term is an integer, and when the
    terms span at most 2 limb binades each is below 2^(2 limb): it splits
    exactly into a high part, a multiple of 2^limb units, and a low part below
    2^limb units. In either limb every partial sum is a multiple of the limb's
    unit below 2^53 of them, so np.sum adds it exactly in any order, and the
    one addition of the two limb sums rounds the exact total once, half to
    even, as fsum does. Anything else goes to fsum itself, so that its values
    and errors stay fsum's: a term that is not a positive normal float (zero,
    negative, subnormal, inf or NaN), a wider span, or a sum that may
    overflow.
    """
    bits = terms.size.bit_length()
    limb = 53 - bits
    lo, hi = terms.min(), terms.max()
    if lo > 0.0 and hi < math.inf:
        e = math.frexp(lo)[1] - 53
        top = math.frexp(hi)[1]
        if e >= -1074 and top - e <= 2 * limb and top + bits <= 1023:
            parts = np.empty((2, terms.size))
            high = parts[1]
            np.ldexp(terms, -e - limb, out=high)
            np.floor(high, out=high)
            np.ldexp(high, e + limb, out=high)
            np.subtract(terms, high, out=parts[0])
            low_sum, high_sum = parts.sum(axis=1).tolist()
            return low_sum + high_sum
    return math.fsum(memoryview(terms))


def evaluate_hardware_aging(
    workload: Workload, mapping: Mapping, hw: HardwareConfig, p: AgingParams
) -> AgingReport:
    """Evaluate wear of one mapping over one workload window, one kernel call
    per tile on the clusters it hosts."""
    require_valid_mapping(mapping, workload.snn, hw)
    beta = p.tddb.beta
    hosted: dict[int, set[int]] = {tile: set() for tile in range(hw.num_tiles)}
    for ci, tile in enumerate(mapping.assignment):
        hosted[tile].add(ci)
    mech = {tile: hosted_set_mechanism_agings(members, workload, hw, p)
            for tile, members in hosted.items()}
    per_tile = {
        tile: combine_aging(at, an, ah, beta) for tile, (at, an, ah) in mech.items()
    }
    per_neuron: dict[str, NeuronAging] = {}
    for ci, tile in enumerate(mapping.assignment):
        at, an, ah = mech[tile]
        per_neuron[workload.snn.clusters[ci].id] = NeuronAging(
            tile=tile, tddb=at, nbti=an, hci=ah, overall=per_tile[tile]
        )
    hardware = max(per_tile.values())
    return AgingReport(
        per_neuron=per_neuron,
        per_tile=per_tile,
        hardware=hardware,
        mttf=mttf_from_aging(hardware, workload.snn.workload_window, beta),
    )


class CalibrationError(RuntimeError):
    """Raised when no parameter scaling can reach the target MTTF."""


def calibrate_baseline(
    workload: Workload,
    baseline_mapping: Mapping,
    hw: HardwareConfig,
    p: AgingParams,
    target_mttf: float,
) -> AgingParams:
    """Rescale mechanism constants so the baseline mapping hits target_mttf.

    One scalar s multiplies tddb.a and divides nbti.g0 / hci.g0, scaling every
    per-mechanism aging by exactly 1/s; the worst-tile combined aging is then
    strictly decreasing in s, so the unique root is found by bisection in
    log space over the baseline report's distinct (tddb, nbti, hci) triples.
    Relative spreads between mechanisms and tiles are preserved.
    """
    if target_mttf <= 0.0 or not math.isfinite(target_mttf):
        raise ValueError("target_mttf must be positive and finite")
    if workload.total_spikes() == 0:
        raise CalibrationError(
            "workload emits no spikes; baseline stress is zero and MTTF is unbounded"
        )
    report = evaluate_hardware_aging(workload, baseline_mapping, hw, p)

    beta = p.tddb.beta
    window = workload.snn.workload_window
    stressed = {(n.tddb, n.nbti, n.hci) for n in report.per_neuron.values()}
    target_aging = window * math.gamma(1.0 + 1.0 / beta) / target_mttf

    def worst(s: float) -> float:
        return max(combine_aging(at / s, an / s, ah / s, beta) for at, an, ah in stressed)

    lo = hi = 1.0
    while worst(hi) > target_aging:
        hi *= 8.0
        if hi > 1e200:
            raise CalibrationError("target MTTF unreachable: scaling diverged upward")
    while worst(lo) < target_aging:
        lo /= 8.0
        if lo < 1e-200:
            raise CalibrationError("target MTTF unreachable: scaling diverged downward")
    for _ in range(200):
        if hi - lo <= 1e-14 * hi:
            break
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if worst(mid) > target_aging:
            lo = mid
        else:
            hi = mid
    s = math.exp(0.5 * (math.log(lo) + math.log(hi)))

    return replace(
        p,
        tddb=replace(p.tddb, a=p.tddb.a * s),
        nbti=replace(p.nbti, g0=p.nbti.g0 / s),
        hci=replace(p.hci, g0=p.hci.g0 / s),
    )
