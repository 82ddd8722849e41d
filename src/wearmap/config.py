"""Run configuration: a single YAML file describing instance and parameters.

The schema is validated by hand so that errors name the offending field and
unknown keys are rejected (typos fail loudly instead of silently using a
default). Domain invariants stay in the domain constructors; this module maps
their ValueErrors onto ConfigError with the field path prepended.

Every field is read by a parser called as parse(value, field path), and every
mapping node, the root included, by _fields. An error names its field by that
path: config.<key> for a field of the root (config.epsilon, config.hardware),
and the path from the section for a field inside one (hardware.num_tiles,
workload.inline.trains.b[1]).

Whether the parsed instance can run has one owner, check_instance: it
refuses with ConfigError or InfeasibleError before any search, on the loaded
config and on each of the CLI sweep's hardware variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .aging import AgingParams, HciParams, NbtiParams, TddbParams, alpha, strain_prefactor
from .model import (
    Cluster,
    ClusteredSnn,
    DeviceProfile,
    Edge,
    HardwareConfig,
    SpikeTrain,
    Workload,
    WorkloadShape,
    generate_poisson_workload,
    validate_snn,
)
from .perf import PerfParams, spike_hop_bound
from .swarm import InfeasibleError, PsoConfig, require_capacity

YEAR_SECONDS = 365 * 24 * 3600.0


class ConfigError(ValueError):
    """Configuration file problem; the message names the field path."""


def _rule(ok, message: str, parse=lambda val, where: val):
    """A parser that parses a value with parse, then refuses it unless ok holds
    for it, with message."""
    def checked(val, where: str):
        val = parse(val, where)
        if not ok(val):
            raise ConfigError(f"{where}: {message}")
        return val
    return checked


def _is_int(val) -> bool:
    """An int that is not a bool: Python bools are ints, and no field takes one
    as a count."""
    return isinstance(val, int) and not isinstance(val, bool)


_bool = _rule(lambda v: isinstance(v, bool), "expected a boolean")
_int = _rule(_is_int, "expected an integer")
_str = _rule(lambda v: isinstance(v, str), "expected a string")
_list = _rule(lambda v: isinstance(v, list), "expected a list")
_mapping = _rule(lambda v: isinstance(v, dict), "expected a mapping")


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _get(d: dict, key: str, path: str, parse):
    """Fetch one field and parse it, called as parse(value, field path)."""
    if key not in d:
        raise ConfigError(f"{path}.{key}: required field missing")
    return parse(d[key], f"{path}.{key}")


def _not_a_number(val, message: str) -> ConfigError:
    """The error for a value that is not a YAML number. A string that float()
    reads as a finite number is named, since PyYAML leaves 1e-4, 1.0e7 and
    1E+7 as strings; where it has an exponent, the error shows the form YAML
    reads as a float."""
    try:
        finite = isinstance(val, str) and math.isfinite(float(val))
    except ValueError:
        finite = False
    if not finite:
        return ConfigError(message)
    message = f"{message}, got the string {val!r}"
    text = val.strip()
    i = max(text.find("e"), text.find("E"))
    if i >= 0:
        mantissa, exponent = text[:i], text[i + 1:]
        sign = mantissa[:1] if mantissa[:1] in ("+", "-") else ""
        digits = mantissa[len(sign):]
        digits = ("0" if digits.startswith(".") else "") + digits + ("" if "." in digits else ".0")
        exponent = ("" if exponent[:1] in ("+", "-") else "+") + exponent
        form = f"{sign}{digits}{text[i]}{exponent}"
        if form != text:  # otherwise only the quotes kept it a string
            message += f" (YAML needs a decimal point and a signed exponent, as in {form})"
    return ConfigError(message)


def _number(val, where: str) -> float:
    """A YAML number as float. NaN is refused: no field has a meaning for it,
    and it slips through every ordering check downstream."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise _not_a_number(val, f"{where}: expected a number")
    if math.isnan(val):
        raise ConfigError(f"{where}: expected a number, got NaN")
    return float(val)


def _number_list(val, path: str) -> list[float]:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(val)]


def _rate(val, path: str) -> float | list[float]:
    """A number, or a non-empty list of numbers (one per cluster)."""
    if isinstance(val, list):
        return _number_list(val, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise _not_a_number(val, f"{path}: expected a number or list of numbers")
    return _number(val, path)


def _build(ctor, kwargs: dict, path: str):
    """Call ctor(**kwargs), raising its ValueError or OverflowError (a count
    past the index-sized integers) as a ConfigError that names path."""
    try:
        return ctor(**kwargs)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _each(parse):
    """A parser of a list whose items are parsed as parse(item, path[i])."""
    return lambda val, where: [parse(x, f"{where}[{i}]") for i, x in enumerate(_list(val, where))]


def _fields(node, path: str, kinds: dict, required=()) -> dict:
    """The fields of a mapping node, checked in kinds' order: unknown keys are
    refused, a missing required field too, and each field present is parsed
    by _get with its kind."""
    d = _mapping(node, path)
    _check_keys(d, set(kinds), path)
    return {key: _get(d, key, path, kind)
            for key, kind in kinds.items() if key in d or key in required}


def _section(ctor, kinds: dict, required=()):
    """A parser of a mapping node whose fields are ctor's keyword arguments."""
    return lambda node, path: _build(ctor, _fields(node, path, kinds, required), path)


_parse_device = _section(
    DeviceProfile,
    {"kind": _str, "v_active": _number, "v_idle": _number, "spike_pulse_width": _number},
    required=("kind",),
)


_mesh = _rule(lambda m: len(m) == 2 and all(map(_is_int, m)),
              "expected [width, height] integers", lambda val, where: tuple(_list(val, where)))


def _parse_hardware(node, path: str) -> HardwareConfig:
    kwargs = _fields(node, path, {
        "num_tiles": _int, "crossbar_dim": _int, "device": _parse_device,
        "tile_capacity": _int, "temperature": _number, "mesh": _mesh,
    }, required=("num_tiles", "crossbar_dim", "device"))
    kwargs["device_profile"] = kwargs.pop("device")
    return _build(HardwareConfig, kwargs, path)


# Wear constants are read in sorted key order.
_NBTI_KINDS = dict.fromkeys(("ea", "g0", "m", "n", "v_threshold"), _number)
_parse_aging = _section(AgingParams, {
    "tddb": _section(TddbParams, dict.fromkeys(("a", "beta", "ea", "gamma", "t_ref"), _number)),
    "nbti": _section(NbtiParams, _NBTI_KINDS),
    "hci": _section(HciParams, {**_NBTI_KINDS, "enabled": _bool}),
})
_parse_perf = _section(
    PerfParams, {"spike_latency": _number, "hop_latency": _number, "tile_parallelism": _bool})
_parse_pso = _section(PsoConfig, {
    "n_particles": _int, "max_iterations": _int, "seed": _int,
    "phi1": _number, "phi2": _number, "v_clamp": _number,
})


_SHAPE_KINDS = {"num_clusters": _int, "neurons_per_cluster": _int, "synapses_per_cluster": _int,
                "kind": _str, "edge_prob": _number}


def _parse_poisson_workload(node, path: str) -> Workload:
    kwargs = _fields(node, path, {**_SHAPE_KINDS, "rate": _rate, "window": _number, "seed": _int},
                     required=("num_clusters", "rate", "window", "seed"))
    shape = _build(WorkloadShape, {k: kwargs.pop(k) for k in _SHAPE_KINDS if k in kwargs}, path)
    return _build(generate_poisson_workload, {"snn_shape": shape, **kwargs}, path)


_CLUSTER_KINDS = {"id": _str, "neuron_count": _int, "synapse_count": _int}
_EDGE_KINDS = {"src": _str, "dst": _str, "spike_count": _int}
_parse_cluster = _section(Cluster, _CLUSTER_KINDS, required=_CLUSTER_KINDS)
_parse_edge = _section(Edge, _EDGE_KINDS, required=_EDGE_KINDS)
_INLINE_KINDS = {
    "window": _number,
    # No clusters leave nothing to map: the search and its evaluator need at least one.
    "clusters": _rule(bool, "expected a non-empty list", _each(_parse_cluster)),
    "edges": _each(_parse_edge),
    "trains": _mapping,
}


def _parse_inline_workload(node, path: str) -> Workload:
    d = _fields(node, path, _INLINE_KINDS, required=("window", "clusters", "trains"))
    snn = _build(ClusteredSnn, {"clusters": d["clusters"], "edges": d.get("edges", []),
                                "workload_window": d["window"]}, f"{path}.window")
    window = snn.workload_window

    def train(val, where: str) -> SpikeTrain:
        times = [] if val is None or val == [] else _number_list(val, where)
        spikes = _build(SpikeTrain, {"times": times}, where)
        if len(spikes) and spikes.times[-1] >= window:
            raise ConfigError(f"{where}: spike times must lie within [0, window={window!r})")
        return spikes

    ids = [c.id for c in snn.clusters]
    trains = _fields(d["trains"], f"{path}.trains", dict.fromkeys(ids, train), required=ids)
    return Workload(snn=snn, trains=trains)


def _parse_workload(node, path: str) -> Workload:
    sources = {"poisson": _parse_poisson_workload, "inline": _parse_inline_workload}
    d = _mapping(node, path)
    _check_keys(d, set(sources), path)
    if len(d) != 1:
        raise ConfigError(f"{path}: exactly one of 'poisson' or 'inline' is required")
    [source] = d
    return _get(d, source, path, sources[source])


def _check_wear_rates(aging: AgingParams, hw: HardwareConfig) -> None:
    """Refuse wear constants whose rates leave the positive finite floats at
    hw's temperature and voltages, naming the mechanism. Each constant can be
    finite on its own: an alpha of 0 made TDDB aging inf and the combined
    aging NaN, and an Arrhenius factor past the floats raised OverflowError
    in the middle of a search."""
    temp, dev = hw.temperature, hw.device_profile
    rates = [(f"aging.tddb: alpha(v_{kind}={v!r} V, T={temp!r} K)", alpha, (v, temp, aging))
             for kind, v in (("active", dev.v_active), ("idle", dev.v_idle))]
    for name, g, used in (("nbti", aging.nbti, True), ("hci", aging.hci, aging.hci.enabled)):
        if used and g.g0 > 0.0:
            rates.append((f"aging.{name}: g0(T={temp!r} K)", strain_prefactor,
                          (g, temp, aging.tddb.t_ref)))
    for label, rate, args in rates:
        try:
            with np.errstate(all="ignore"):
                value = rate(*args)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{label} is {value!r}; it must be finite and > 0")


def _check_execution_time(snn: ClusteredSnn, hw: HardwareConfig, perf: PerfParams) -> None:
    """Refuse edge spike counts, then latencies, that can put the execution
    time past the floats. It sums loads and spike-hops exactly, but its float
    conversion of a spike_hop_bound past the floats raised OverflowError in the
    middle of a run. No tile's spike arrivals exceed the spike total, and no
    mapping's spike-hops exceed spike_hop_bound, so tau is at most total *
    spike_latency + spike_hop_bound * hop_latency; an inf tau made every
    mapping tie, and lambda = inf * 0 NaN."""
    width, height = hw.mesh
    hops = spike_hop_bound(snn, hw)
    try:
        float(hops)  # total <= hops, so neither product below can raise
    except OverflowError:
        raise ConfigError(
            f"workload edges: the spike_count total, times the longest route on the "
            f"{width}x{height} mesh, is past the floats") from None
    total = snn.spike_total
    if not math.isfinite(total * perf.spike_latency + hops * perf.hop_latency):
        raise ConfigError(
            f"perf: spike_latency {perf.spike_latency!r} s times {total}, the spike total, "
            f"and hop_latency {perf.hop_latency!r} s times {hops}, the bound on a mapping's "
            f"spike-hops on the {width}x{height} mesh, put the execution time past the floats")


def _check_pulse_width(hw: HardwareConfig, workload: Workload) -> None:
    """Refuse a spike_pulse_width too small to lengthen some spike time: when
    t + width rounds back to t, that pulse has no duration, and the stress
    kernel and the voltage trace both stopped on it in the middle of a run."""
    width = hw.device_profile.spike_pulse_width
    for cid, train in workload.trains.items():
        lost = train.times[train.times + width <= train.times]
        if lost.size:
            raise ConfigError(
                f"hardware.device.spike_pulse_width: {width!r} s vanishes when added to "
                f"spike time {float(lost[0])!r} s of cluster {cid!r}; it must lengthen "
                "every spike time")


def check_instance(workload: Workload, hw: HardwareConfig, aging: AgingParams,
                   perf: PerfParams) -> None:
    """Refuse an instance that cannot run, before any search. Values that break
    a float in the middle of a run raise ConfigError, in this order: the wear
    rates, the spike counts, the latencies, the pulse width. Then a workload
    that fits no mapping raises InfeasibleError: one that validate_snn
    refuses, then one with more clusters than the tiles hold."""
    _check_wear_rates(aging, hw)
    _check_execution_time(workload.snn, hw, perf)
    _check_pulse_width(hw, workload)
    problems = validate_snn(workload.snn, hw)
    if problems:
        raise InfeasibleError("; ".join(map(str, problems)))
    require_capacity(len(workload.snn.clusters), hw)


@dataclass
class RunConfig:
    """Parsed and validated run configuration plus the verbatim source text."""

    raw_text: str
    output: str | None
    epsilon: float
    target_mttf_seconds: float
    n_random: int
    hardware: HardwareConfig
    aging: AgingParams
    perf: PerfParams
    pso: PsoConfig
    workload: Workload

    def pso_with_seed(self, seed: int | None) -> PsoConfig:
        """The run's swarm config, optionally with the CLI seed override."""
        if seed is None:
            return self.pso
        try:
            return replace(self.pso, seed=seed)
        except ValueError as e:
            raise ConfigError(f"--seed: {e}") from e


def _root_section(parse):
    """A section's parser at the root: the node is named config.<key>, and the
    fields inside it from the section, <key>.<field>."""
    return lambda node, where: parse(_mapping(node, where), where.removeprefix("config."))


_ROOT_KINDS = {
    "epsilon": _rule(lambda x: x >= 0.0, "must be >= 0", _number),
    "target_mttf_years": _rule(
        lambda x: math.isfinite(x * YEAR_SECONDS),
        f"must be finite in seconds, at {YEAR_SECONDS!r} s a year",
        _rule(lambda x: math.isfinite(x) and x > 0.0, "must be finite and > 0", _number)),
    "n_random": _rule(lambda n: n >= 1, "must be >= 1", _int),
    "hardware": _root_section(_parse_hardware),
    "aging": _root_section(_parse_aging),
    "perf": _root_section(_parse_perf),
    "pso": _root_section(_parse_pso),
    "workload": _root_section(_parse_workload),
    "output": _str,
}


def parse_run_config(text: str) -> RunConfig:
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}") from e
    d = _fields(root, "config", _ROOT_KINDS, required=("hardware", "workload"))
    aging, perf = d.get("aging", AgingParams()), d.get("perf", PerfParams())
    check_instance(d["workload"], d["hardware"], aging, perf)

    return RunConfig(
        raw_text=text,
        output=d.get("output"),
        epsilon=d.get("epsilon", 0.05),
        target_mttf_seconds=d.get("target_mttf_years", 2.0) * YEAR_SECONDS,
        n_random=d.get("n_random", 25),
        hardware=d["hardware"],
        aging=aging,
        perf=perf,
        pso=d.get("pso", PsoConfig()),
        workload=d["workload"],
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    return parse_run_config(text)
