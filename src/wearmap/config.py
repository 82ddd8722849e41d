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
    """Fetch and type-check one field. kind is bool/int/float/str/list/dict.

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
    raise AssertionError(f"unhandled kind {kind!r}")


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


def _parse_device(node, path: str) -> DeviceProfile:
    d = _mapping(node, path)
    _check_keys(d, {"kind", "v_active", "v_idle", "spike_pulse_width"}, path)
    kwargs = {"kind": _get(d, "kind", path, str)}
    for key in ("v_active", "v_idle", "spike_pulse_width"):
        val = _get(d, key, path, float, default=None)
        if val is not None:
            kwargs[key] = val
    return _build(DeviceProfile, kwargs, path)


def _parse_hardware(node, path: str) -> HardwareConfig:
    d = _mapping(node, path)
    _check_keys(
        d, {"num_tiles", "crossbar_dim", "tile_capacity", "temperature", "mesh", "device"},
        path,
    )
    kwargs = {
        "num_tiles": _get(d, "num_tiles", path, int),
        "crossbar_dim": _get(d, "crossbar_dim", path, int),
        "device_profile": _parse_device(_get(d, "device", path, dict), f"{path}.device"),
    }
    cap = _get(d, "tile_capacity", path, int, default=None)
    if cap is not None:
        kwargs["tile_capacity"] = cap
    temp = _get(d, "temperature", path, float, default=None)
    if temp is not None:
        kwargs["temperature"] = temp
    mesh = _get(d, "mesh", path, list, default=None)
    if mesh is not None:
        if len(mesh) != 2 or any(isinstance(x, bool) or not isinstance(x, int) for x in mesh):
            raise ConfigError(f"{path}.mesh: expected [width, height] integers")
        kwargs["mesh"] = (mesh[0], mesh[1])
    return _build(HardwareConfig, kwargs, path)


_TDDB_KEYS = {"a", "gamma", "beta", "ea", "t_ref"}
_NBTI_KEYS = {"g0", "m", "n", "v_threshold", "ea"}


def _parse_mech(node, path: str, allowed: set[str], ctor):
    d = _mapping(node, path)
    _check_keys(d, allowed, path)
    kwargs = {}
    for key in sorted(allowed):
        if key in d:
            kwargs[key] = _get(d, key, path, bool if key == "enabled" else float)
    return _build(ctor, kwargs, path)


def _parse_aging(node, path: str) -> AgingParams:
    d = _mapping(node, path)
    _check_keys(d, {"tddb", "nbti", "hci"}, path)
    kwargs = {}
    if "tddb" in d:
        kwargs["tddb"] = _parse_mech(d["tddb"], f"{path}.tddb", _TDDB_KEYS, TddbParams)
    if "nbti" in d:
        kwargs["nbti"] = _parse_mech(d["nbti"], f"{path}.nbti", _NBTI_KEYS, NbtiParams)
    if "hci" in d:
        kwargs["hci"] = _parse_mech(d["hci"], f"{path}.hci", _NBTI_KEYS | {"enabled"}, HciParams)
    return AgingParams(**kwargs)


def _parse_perf(node, path: str) -> PerfParams:
    d = _mapping(node, path)
    _check_keys(d, {"spike_latency", "hop_latency", "tile_parallelism"}, path)
    kwargs = {}
    for key in ("spike_latency", "hop_latency"):
        val = _get(d, key, path, float, default=None)
        if val is not None:
            kwargs[key] = val
    par = _get(d, "tile_parallelism", path, bool, default=None)
    if par is not None:
        kwargs["tile_parallelism"] = par
    return _build(PerfParams, kwargs, path)


def _parse_pso(node, path: str) -> PsoConfig:
    d = _mapping(node, path)
    _check_keys(
        d, {"n_particles", "max_iterations", "phi1", "phi2", "seed", "v_clamp"}, path
    )
    kwargs = {}
    for key in ("n_particles", "max_iterations", "seed"):
        val = _get(d, key, path, int, default=None)
        if val is not None:
            kwargs[key] = val
    for key in ("phi1", "phi2", "v_clamp"):
        val = _get(d, key, path, float, default=None)
        if val is not None:
            kwargs[key] = val
    return _build(PsoConfig, kwargs, path)


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


def _parse_inline_workload(node, path: str) -> Workload:
    d = _mapping(node, path)
    _check_keys(d, {"window", "clusters", "edges", "trains"}, path)
    window = _get(d, "window", path, float)

    clusters = []
    raw_clusters = _get(d, "clusters", path, list)
    for i, c in enumerate(raw_clusters):
        cpath = f"{path}.clusters[{i}]"
        cd = _mapping(c, cpath)
        _check_keys(cd, {"id", "neuron_count", "synapse_count"}, cpath)
        clusters.append(_build(Cluster, {
            "id": _get(cd, "id", cpath, str),
            "neuron_count": _get(cd, "neuron_count", cpath, int),
            "synapse_count": _get(cd, "synapse_count", cpath, int),
        }, cpath))

    edges = []
    for i, e in enumerate(_get(d, "edges", path, list, default=[])):
        epath = f"{path}.edges[{i}]"
        ed = _mapping(e, epath)
        _check_keys(ed, {"src", "dst", "spike_count"}, epath)
        edges.append(_build(Edge, {
            "src": _get(ed, "src", epath, str),
            "dst": _get(ed, "dst", epath, str),
            "spike_count": _get(ed, "spike_count", epath, int),
        }, epath))

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
        return self.pso if seed is None else replace(self.pso, seed=seed)


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
