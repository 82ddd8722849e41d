"""Run configuration: a single YAML file describing instance and parameters.

The schema is validated by hand so that errors name the offending field and
unknown keys are rejected (typos fail loudly instead of silently using a
default). Domain invariants stay in the domain constructors; this module maps
their ValueErrors onto ConfigError with the field path prepended.
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
)
from .perf import PerfParams
from .swarm import PsoConfig

YEAR_SECONDS = 365 * 24 * 3600.0

_MISSING = object()


class ConfigError(ValueError):
    """Configuration file problem; the message names the field path."""


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _get(d: dict, key: str, path: str, kind, default=_MISSING):
    """Fetch and type-check one field. kind is bool/int/float/str/list/dict,
    or a section parser, called as kind(value, field path).

    bool is checked before the int family because Python bools are ints.
    """
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    val = d[key]
    where = f"{path}.{key}"
    if kind is bool:
        if not isinstance(val, bool):
            raise ConfigError(f"{where}: expected a boolean")
        return val
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{where}: expected an integer")
        return val
    if kind is float:
        return _number(val, where)
    if kind is str:
        if not isinstance(val, str):
            raise ConfigError(f"{where}: expected a string")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise ConfigError(f"{where}: expected a list")
        return val
    if kind is dict:
        return _mapping(val, where)
    return kind(val, where)


def _number(val, where: str) -> float:
    """A YAML number as float. NaN is refused: no field has a meaning for it,
    and it slips through every ordering check downstream."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    if math.isnan(val):
        raise ConfigError(f"{where}: expected a number, got NaN")
    return float(val)


def _number_list(val, path: str) -> list[float]:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(val)]


def _build(ctor, kwargs: dict, path: str):
    try:
        return ctor(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _fields(node, path: str, kinds: dict, required=()) -> dict:
    """The fields of a mapping node, checked in kinds' order: unknown keys are
    refused, a missing required field too, and each field present is fetched
    with _get as its kind."""
    d = _mapping(node, path)
    _check_keys(d, set(kinds), path)
    return {key: _get(d, key, path, kind)
            for key, kind in kinds.items() if key in d or key in required}


def _section(ctor, kinds: dict, required=()):
    """A parser of a mapping node whose fields are ctor's keyword arguments."""
    return lambda node, path: _build(ctor, _fields(node, path, kinds, required), path)


_parse_device = _section(
    DeviceProfile,
    {"kind": str, "v_active": float, "v_idle": float, "spike_pulse_width": float},
    required=("kind",),
)


def _parse_hardware(node, path: str) -> HardwareConfig:
    kwargs = _fields(node, path, {
        "num_tiles": int, "crossbar_dim": int, "device": _parse_device,
        "tile_capacity": int, "temperature": float, "mesh": list,
    }, required=("num_tiles", "crossbar_dim", "device"))
    kwargs["device_profile"] = kwargs.pop("device")
    mesh = kwargs.get("mesh")
    if mesh is not None:
        if len(mesh) != 2 or any(isinstance(x, bool) or not isinstance(x, int) for x in mesh):
            raise ConfigError(f"{path}.mesh: expected [width, height] integers")
        kwargs["mesh"] = (mesh[0], mesh[1])
    return _build(HardwareConfig, kwargs, path)


# Wear constants are read in sorted key order.
_NBTI_KINDS = dict.fromkeys(("ea", "g0", "m", "n", "v_threshold"), float)
_parse_aging = _section(AgingParams, {
    "tddb": _section(TddbParams, dict.fromkeys(("a", "beta", "ea", "gamma", "t_ref"), float)),
    "nbti": _section(NbtiParams, _NBTI_KINDS),
    "hci": _section(HciParams, {**_NBTI_KINDS, "enabled": bool}),
})
_parse_perf = _section(
    PerfParams, {"spike_latency": float, "hop_latency": float, "tile_parallelism": bool})
_parse_pso = _section(PsoConfig, {
    "n_particles": int, "max_iterations": int, "seed": int,
    "phi1": float, "phi2": float, "v_clamp": float,
})


def _parse_poisson_workload(node, path: str) -> Workload:
    d = _mapping(node, path)
    _check_keys(
        d,
        {"num_clusters", "neurons_per_cluster", "synapses_per_cluster", "kind",
         "edge_prob", "rate", "window", "seed"},
        path,
    )
    shape_kwargs = {"num_clusters": _get(d, "num_clusters", path, int)}
    for key, kind in (("neurons_per_cluster", int), ("synapses_per_cluster", int),
                      ("kind", str), ("edge_prob", float)):
        val = _get(d, key, path, kind, default=None)
        if val is not None:
            shape_kwargs[key] = val
    shape = _build(WorkloadShape, shape_kwargs, path)
    if "rate" not in d:
        raise ConfigError(f"{path}.rate: required field missing")
    rate = d["rate"]
    if isinstance(rate, list):
        rate = _number_list(rate, f"{path}.rate")
    elif isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise ConfigError(f"{path}.rate: expected a number or list of numbers")
    else:
        rate = _number(rate, f"{path}.rate")
    window = _get(d, "window", path, float)
    seed = _get(d, "seed", path, int)
    try:
        return generate_poisson_workload(shape, rate, window, seed)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


_CLUSTER_KINDS = {"id": str, "neuron_count": int, "synapse_count": int}
_EDGE_KINDS = {"src": str, "dst": str, "spike_count": int}
_parse_cluster = _section(Cluster, _CLUSTER_KINDS, required=_CLUSTER_KINDS)
_parse_edge = _section(Edge, _EDGE_KINDS, required=_EDGE_KINDS)


def _parse_inline_workload(node, path: str) -> Workload:
    d = _mapping(node, path)
    _check_keys(d, {"window", "clusters", "edges", "trains"}, path)
    window = _get(d, "window", path, float)

    clusters = [_parse_cluster(c, f"{path}.clusters[{i}]")
                for i, c in enumerate(_get(d, "clusters", path, list))]
    edges = [_parse_edge(e, f"{path}.edges[{i}]")
             for i, e in enumerate(_get(d, "edges", path, list, default=[]))]

    snn = _build(ClusteredSnn,
                 {"clusters": clusters, "edges": edges, "workload_window": window},
                 f"{path}.window")

    trains_node = _get(d, "trains", path, dict)
    cluster_ids = [c.id for c in clusters]
    extra = sorted(set(trains_node) - set(cluster_ids))
    if extra:
        raise ConfigError(f"{path}.trains: unknown cluster id(s) {', '.join(map(repr, extra))}")
    trains = {}
    for cid in cluster_ids:
        if cid not in trains_node:
            raise ConfigError(f"{path}.trains.{cid}: required field missing")
        times = _number_list(trains_node[cid], f"{path}.trains.{cid}") \
            if trains_node[cid] else []
        try:
            trains[cid] = SpikeTrain(times)
        except ValueError as e:
            raise ConfigError(f"{path}.trains.{cid}: {e}") from e
        if len(trains[cid]) and trains[cid].times[-1] >= snn.workload_window:
            raise ConfigError(f"{path}.trains.{cid}: spike times must lie within "
                              f"[0, window={snn.workload_window!r})")
    return Workload(snn=snn, trains=trains)


def _parse_workload(node, path: str) -> Workload:
    d = _mapping(node, path)
    _check_keys(d, {"poisson", "inline"}, path)
    given = [k for k in ("poisson", "inline") if k in d]
    if len(given) != 1:
        raise ConfigError(f"{path}: exactly one of 'poisson' or 'inline' is required")
    if given[0] == "poisson":
        return _parse_poisson_workload(d["poisson"], f"{path}.poisson")
    return _parse_inline_workload(d["inline"], f"{path}.inline")


def check_wear_rates(aging: AgingParams, hw: HardwareConfig) -> None:
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


def parse_run_config(text: str) -> RunConfig:
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}") from e
    root = _mapping(root, "config")
    _check_keys(
        root,
        {"output", "epsilon", "target_mttf_years", "n_random",
         "hardware", "aging", "perf", "pso", "workload"},
        "config",
    )
    epsilon = _get(root, "epsilon", "config", float, default=0.05)
    if epsilon < 0.0:
        raise ConfigError("config.epsilon: must be >= 0")
    years = _get(root, "target_mttf_years", "config", float, default=2.0)
    if not (math.isfinite(years) and years > 0.0):
        raise ConfigError("config.target_mttf_years: must be finite and > 0")
    n_random = _get(root, "n_random", "config", int, default=25)
    if n_random < 1:
        raise ConfigError("config.n_random: must be >= 1")

    hardware = _parse_hardware(_get(root, "hardware", "config", dict), "hardware")
    aging = _parse_aging(root["aging"], "aging") if "aging" in root else AgingParams()
    check_wear_rates(aging, hardware)
    perf = _parse_perf(root["perf"], "perf") if "perf" in root else PerfParams()
    pso = _parse_pso(root["pso"], "pso") if "pso" in root else PsoConfig()
    workload = _parse_workload(_get(root, "workload", "config", dict), "workload")
    _check_pulse_width(hardware, workload)

    return RunConfig(
        raw_text=text,
        output=_get(root, "output", "config", str, default=None),
        epsilon=epsilon,
        target_mttf_seconds=years * YEAR_SECONDS,
        n_random=n_random,
        hardware=hardware,
        aging=aging,
        perf=perf,
        pso=pso,
        workload=workload,
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    return parse_run_config(text)
