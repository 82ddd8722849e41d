"""Config schema validation and CLI behavior: exit codes, files, determinism."""

import copy
import hashlib
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wearmap.cli as cli
import wearmap.config as config_module
import wearmap.oracle as oracle_module
from wearmap.aging import mttf_from_aging
from wearmap.cli import _write_json, main
from wearmap.config import (
    YEAR_SECONDS,
    ConfigError,
    load_run_config,
    parse_run_config,
)
from wearmap.swarm import Archive, EvalContext, InfeasibleError, optimize


def _times(n):
    return [(i + 0.5) / n for i in range(n)]


def _yaml_list(xs):
    return "[" + ", ".join(repr(x) for x in xs) + "]"


BASE = """\
hardware:
  num_tiles: 2
  crossbar_dim: 16
  tile_capacity: 1
  temperature: 300.0
  device:
    kind: diode_1D1R
pso:
  n_particles: 8
  max_iterations: 12
  seed: 3
workload:
  inline:
    window: 1.0
    clusters:
      - {id: a, neuron_count: 4, synapse_count: 8}
      - {id: b, neuron_count: 4, synapse_count: 8}
    edges:
      - {src: a, dst: b, spike_count: 3}
    trains:
      a: [0.1, 0.4, 0.7]
      b: [0.2, 0.5]
"""


def _chain_config(n_particles, max_iterations, seed):
    counts = {"a": 21, "b": 14, "c": 25, "d": 3}
    clusters = "\n".join(
        f"      - {{id: {c}, neuron_count: 4, synapse_count: 8}}" for c in counts
    )
    trains = "\n".join(f"      {c}: {_yaml_list(_times(n))}" for c, n in counts.items())
    return f"""\
hardware:
  num_tiles: 4
  crossbar_dim: 16
  tile_capacity: 1
  mesh: [4, 1]
  device:
    kind: diode_1D1R
pso:
  n_particles: {n_particles}
  max_iterations: {max_iterations}
  seed: {seed}
workload:
  inline:
    window: 1.0
    clusters:
{clusters}
    edges:
      - {{src: a, dst: b, spike_count: 21}}
      - {{src: b, dst: c, spike_count: 14}}
      - {{src: c, dst: d, spike_count: 25}}
    trains:
{trains}
"""


def _write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------- parsing


def test_parse_base_config():
    cfg = parse_run_config(BASE)
    assert cfg.hardware.num_tiles == 2
    assert cfg.hardware.device_profile.kind == "diode_1D1R"
    assert cfg.epsilon == 0.05
    assert cfg.n_random == 25
    assert cfg.target_mttf_seconds == 2.0 * YEAR_SECONDS
    assert [c.id for c in cfg.workload.snn.clusters] == ["a", "b"]
    assert len(cfg.workload.trains["a"]) == 3
    assert cfg.pso.n_particles == 8
    assert cfg.output is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="outputs"):
        parse_run_config(BASE + "outputs: somewhere\n")


def test_unknown_nested_key_named():
    bad = BASE.replace("  n_particles: 8", "  n_particle: 8")
    with pytest.raises(ConfigError, match=r"pso.*n_particle"):
        parse_run_config(bad)


def test_missing_required_field_named():
    bad = BASE.replace("  num_tiles: 2\n", "")
    with pytest.raises(ConfigError, match=r"hardware\.num_tiles.*required"):
        parse_run_config(bad)


def test_wrong_type_named():
    bad = BASE.replace("num_tiles: 2", "num_tiles: two")
    with pytest.raises(ConfigError, match=r"hardware\.num_tiles.*integer"):
        parse_run_config(bad)


def test_bool_is_not_an_integer():
    bad = BASE.replace("num_tiles: 2", "num_tiles: true")
    with pytest.raises(ConfigError, match=r"hardware\.num_tiles"):
        parse_run_config(bad)


def test_domain_error_carries_field_path():
    bad = BASE.replace("num_tiles: 2", "num_tiles: 0")
    with pytest.raises(ConfigError, match="hardware"):
        parse_run_config(bad)


def test_workload_requires_exactly_one_source():
    both = BASE + """\
    # appended below inline on purpose
"""
    both = BASE.replace(
        "workload:\n  inline:",
        "workload:\n  poisson:\n"
        "    num_clusters: 2\n    rate: 5.0\n    window: 1.0\n    seed: 1\n"
        "  inline:",
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_run_config(both)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_run_config("hardware:\n  num_tiles: 2\n  crossbar_dim: 16\n"
                         "  device: {kind: diode_1D1R}\nworkload: {}\n")


def test_inline_trains_must_cover_clusters():
    bad = BASE.replace("      b: [0.2, 0.5]\n", "")
    with pytest.raises(ConfigError, match=r"trains\.b.*required"):
        parse_run_config(bad)
    extra = BASE + "      zz: [0.3]\n"
    with pytest.raises(ConfigError, match="zz"):
        parse_run_config(extra)


def test_poisson_workload_is_deterministic():
    text = """\
hardware:
  num_tiles: 4
  crossbar_dim: 32
  tile_capacity: 2
  device: {kind: transistor_1T1R}
workload:
  poisson:
    num_clusters: 3
    neurons_per_cluster: 6
    synapses_per_cluster: 12
    kind: chain
    rate: [20.0, 5.0, 40.0]
    window: 2.0
    seed: 11
"""
    a = parse_run_config(text).workload
    b = parse_run_config(text).workload
    assert a.snn == b.snn
    for cid in ("c0", "c1", "c2"):
        assert list(a.trains[cid].times) == list(b.trains[cid].times)
    assert a.total_spikes() > 0


def test_poisson_rate_length_mismatch_rejected():
    text = """\
hardware:
  num_tiles: 2
  crossbar_dim: 16
  device: {kind: diode_1D1R}
workload:
  poisson: {num_clusters: 3, rate: [1.0, 2.0], window: 1.0, seed: 0}
"""
    with pytest.raises(ConfigError, match="rates"):
        parse_run_config(text)


def test_epsilon_and_mesh_validation():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_run_config("epsilon: -0.1\n" + BASE)
    bad_mesh = BASE.replace("  temperature: 300.0",
                            "  temperature: 300.0\n  mesh: [2]")
    with pytest.raises(ConfigError, match="mesh"):
        parse_run_config(bad_mesh)
    good_mesh = BASE.replace("  temperature: 300.0",
                             "  temperature: 300.0\n  mesh: [1, 2]")
    assert parse_run_config(good_mesh).hardware.mesh == (1, 2)


def test_aging_and_perf_overrides_land():
    text = BASE + """\
aging:
  tddb: {a: 2.0e+7, beta: 2.5}
  hci: {enabled: true, g0: 3.0e-5}
perf:
  spike_latency: 2.0e-6
  tile_parallelism: false
"""
    cfg = parse_run_config(text)
    assert cfg.aging.tddb.a == 2.0e7
    assert cfg.aging.tddb.beta == 2.5
    assert cfg.aging.nbti.g0 == 1e-4
    assert cfg.aging.hci.enabled and cfg.aging.hci.g0 == 3.0e-5
    assert cfg.perf.spike_latency == 2.0e-6
    assert cfg.perf.tile_parallelism is False


def test_pso_with_seed_override():
    cfg = parse_run_config(BASE)
    assert cfg.pso_with_seed(None) is cfg.pso
    assert cfg.pso_with_seed(42).seed == 42
    assert cfg.pso_with_seed(42).n_particles == cfg.pso.n_particles


# Every field of the schema, each set to a valid value; the two workload
# sources are swapped in below.
_FULL = """\
epsilon: 0.05
target_mttf_years: 2.0
n_random: 5
output: out
hardware:
  num_tiles: 2
  crossbar_dim: 16
  tile_capacity: 1
  temperature: 300.0
  mesh: [2, 1]
  device: {kind: diode_1D1R, v_active: 3.0, v_idle: 0.5, spike_pulse_width: 1.0e-3}
aging:
  tddb: {a: 1.0e+7, gamma: 2.0, beta: 2.0, ea: 0.5, t_ref: 300.0}
  nbti: {g0: 1.0e-4, m: 2.0, n: 0.5, v_threshold: 1.8, ea: 0.5}
  hci: {g0: 1.0e-4, m: 2.0, n: 0.5, v_threshold: 1.8, ea: 0.5, enabled: true}
perf: {spike_latency: 1.0e-6, hop_latency: 1.0e-7, tile_parallelism: true}
pso: {n_particles: 4, max_iterations: 2, phi1: 2.0, phi2: 2.0, seed: 0, v_clamp: 4.0}
"""
_SOURCES = [
    {"inline": yaml.safe_load(BASE)["workload"]["inline"]},
    {"poisson": {"num_clusters": 2, "neurons_per_cluster": 4, "synapses_per_cluster": 8,
                 "kind": "chain", "edge_prob": 0.5, "rate": [2.0, 3.0], "window": 1.0,
                 "seed": 1}},
]
_DELETE = object()
# Small magnitudes only: a mutated rate, window or cluster count is generated.
_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-3, 8),
    st.floats(-4.0, 4.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.0e-30, -0.0]),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-1.0, 2.0), st.text(max_size=1)),
             max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "kind", "x"]), st.integers(0, 2), max_size=2),
)


def _nodes(node):
    """Every mapping in a parsed YAML tree, lists included."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _nodes(child)


# The messages of check_instance's two infeasibility checks: validate_snn's
# violations, then the capacity check.
_INFEASIBLE = (r"(duplicate_cluster|crossbar_overflow|fanin_overflow|dangling_edge): .*"
               r"|\d+ clusters exceed total capacity \d+")


def test_full_schema_config_parses():
    for source in _SOURCES:
        parse_run_config(yaml.safe_dump({**yaml.safe_load(_FULL), "workload": source}))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(_SOURCES))
def test_parse_run_config_raises_only_config_error(data, source):
    # Mistyped, missing and unknown fields anywhere in the tree: each either
    # parses or is refused with a ConfigError, never another exception. The
    # one other refusal is an instance that fits no mapping (check_instance's
    # InfeasibleError, exit 3), such as a crossbar_dim below a cluster's size.
    root = {**yaml.safe_load(_FULL), "workload": copy.deepcopy(source)}
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(_nodes(root))))
        key = data.draw(st.sampled_from(sorted(node) + ["bogus"]))
        value = data.draw(_VALUES)
        if value is _DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    try:
        parse_run_config(yaml.safe_dump(root))
    except ConfigError:
        pass
    except InfeasibleError as e:
        assert re.fullmatch(_INFEASIBLE, str(e)), str(e)


def test_invalid_yaml_is_config_error():
    with pytest.raises(ConfigError, match="YAML"):
        parse_run_config("a: [unclosed\n")
    with pytest.raises(ConfigError, match="mapping"):
        parse_run_config("- just\n- a list\n")


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(tmp_path / "nope.yaml"))


def _root(**changes):
    """BASE with root keys set to new values, or removed where the value is _DELETE."""
    root = {**yaml.safe_load(BASE), **changes}
    return yaml.safe_dump({k: v for k, v in root.items() if v is not _DELETE})


def _poisson(rate):
    return _root(workload={"poisson": {"num_clusters": 2, "rate": rate, "window": 1.0,
                                       "seed": 0}})


# One invalid config per kind of field error, with its whole message: a root
# field is named config.<key>, a field inside a section by its section path.
_P = pytest.param
_MESSAGES = [
    _P("- just\n- a list\n", "config: expected a mapping", id="root_not_mapping"),
    _P(BASE + "bogus_key: 1\n", "config: unknown key(s) 'bogus_key'", id="root_unknown_key"),
    _P("epsilon: low\n" + BASE, "config.epsilon: expected a number", id="epsilon_type"),
    _P("epsilon: -0.1\n" + BASE, "config.epsilon: must be >= 0", id="epsilon_range"),
    _P("target_mttf_years: [2.0]\n" + BASE, "config.target_mttf_years: expected a number",
       id="target_mttf_type"),
    _P("target_mttf_years: 0.0\n" + BASE, "config.target_mttf_years: must be finite and > 0",
       id="target_mttf_range"),
    # finite in years, inf in seconds: calibrate ended in a ValueError traceback
    _P("target_mttf_years: 1.0e+301\n" + BASE,
       "config.target_mttf_years: must be finite in seconds, at 31536000.0 s a year",
       id="target_mttf_seconds_overflow"),
    _P(BASE.replace("spike_count: 3", f"spike_count: {10 ** 400}"),
       "workload edges: the spike_count total, times the longest route on the 2x1 mesh, "
       "is past the floats", id="spike_count_past_floats"),
    # tau = 3 * 1e308 s is inf, and with silent trains lambda = inf * 0 is NaN
    _P(BASE + "perf: {spike_latency: 1.0e+308}\n",
       "perf: spike_latency 1e+308 s times 3, the spike total, and hop_latency 1e-07 s times "
       "3, the bound on a mapping's spike-hops on the 2x1 mesh, put the execution time past "
       "the floats",
       id="spike_latency_past_floats"),
    _P("n_random: 2.5\n" + BASE, "config.n_random: expected an integer", id="n_random_type"),
    _P("n_random: true\n" + BASE, "config.n_random: expected an integer", id="n_random_bool"),
    _P("n_random: 0\n" + BASE, "config.n_random: must be >= 1", id="n_random_range"),
    _P("output: 7\n" + BASE, "config.output: expected a string", id="output_type"),
    _P(_root(hardware=[1]), "config.hardware: expected a mapping", id="hardware_not_mapping"),
    _P(_root(aging=[1]), "config.aging: expected a mapping", id="aging_not_mapping"),
    _P(_root(perf=[1]), "config.perf: expected a mapping", id="perf_not_mapping"),
    _P(_root(pso=[1]), "config.pso: expected a mapping", id="pso_not_mapping"),
    _P(_root(workload=[1]), "config.workload: expected a mapping", id="workload_not_mapping"),
    _P(_root(hardware=_DELETE), "config.hardware: required field missing",
       id="hardware_missing"),
    _P(_root(workload=_DELETE), "config.workload: required field missing",
       id="workload_missing"),
    _P(BASE.replace("  num_tiles: 2\n", ""), "hardware.num_tiles: required field missing",
       id="num_tiles_missing"),
    _P(BASE.replace("num_tiles: 2", "num_tiles: two"), "hardware.num_tiles: expected an integer",
       id="num_tiles_type"),
    _P(BASE.replace("n_particles: 8", "n_particle: 8"), "pso: unknown key(s) 'n_particle'",
       id="nested_unknown_key"),
    _P(BASE.replace("kind: diode_1D1R", "kind: 3"), "hardware.device.kind: expected a string",
       id="device_kind_type"),
    _P(BASE.replace("kind: diode_1D1R", "kind: memristor"),
       "hardware.device: unknown device kind 'memristor'; "
       "expected one of ['diode_1D1R', 'transistor_1T1R']", id="device_kind_domain"),
    _P(BASE + "aging: {hci: {enabled: 1}}\n", "aging.hci.enabled: expected a boolean",
       id="hci_enabled_type"),
    _P(BASE.replace("temperature: 300.0", "temperature: 300.0\n  mesh: [2]"),
       "hardware.mesh: expected [width, height] integers", id="mesh_length"),
    _P(BASE.replace("temperature: 300.0", "temperature: 300.0\n  mesh: 2x1"),
       "hardware.mesh: expected a list", id="mesh_type"),
    _P(_poisson(True), "workload.poisson.rate: expected a number or list of numbers",
       id="rate_bool"),
    _P(_poisson([]), "workload.poisson.rate: expected a non-empty list of numbers",
       id="rate_empty_list"),
    _P(_poisson([1.0, "x"]), "workload.poisson.rate[1]: expected a number", id="rate_item_type"),
    _P(BASE.replace("    edges:\n      - {src: a, dst: b, spike_count: 3}\n", "    edges: {}\n"),
       "workload.inline.edges: expected a list", id="edges_type"),
    _P(BASE.replace("      - {id: b, neuron_count: 4, synapse_count: 8}", "      - b"),
       "workload.inline.clusters[1]: expected a mapping", id="cluster_not_mapping"),
    _P(BASE.replace("      b: [0.2, 0.5]\n", ""),
       "workload.inline.trains.b: required field missing", id="train_missing"),
    _P(BASE + "      zz: [0.3]\n", "workload.inline.trains: unknown key(s) 'zz'",
       id="train_unknown"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: [0.2, x]"),
       "workload.inline.trains.b[1]: expected a number", id="train_item_type"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: [-0.2, 0.5]"),
       "workload.inline.trains.b: spike times must be >= 0", id="train_negative"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: 0.5"),
       "workload.inline.trains.b: expected a non-empty list of numbers", id="train_not_list"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: 0"),
       "workload.inline.trains.b: expected a non-empty list of numbers", id="train_zero"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: false"),
       "workload.inline.trains.b: expected a non-empty list of numbers", id="train_false"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: \"\""),
       "workload.inline.trains.b: expected a non-empty list of numbers", id="train_empty_string"),
    _P(BASE.replace("    trains:\n      a: [0.1, 0.4, 0.7]\n      b: [0.2, 0.5]\n",
                    "    trains: [1]\n"),
       "workload.inline.trains: expected a mapping", id="trains_not_mapping"),
    _P(_root(workload={}), "workload: exactly one of 'poisson' or 'inline' is required",
       id="workload_neither"),
    _P(_root(workload={"inline": {}, "poisson": {}}),
       "workload: exactly one of 'poisson' or 'inline' is required", id="workload_both"),
    # PyYAML reads an exponent without a decimal point or a sign as a string
    _P("epsilon: 1e-4\n" + BASE,
       "config.epsilon: expected a number, got the string '1e-4' "
       "(YAML needs a decimal point and a signed exponent, as in 1.0e-4)", id="epsilon_1e-4"),
    _P(BASE + "aging: {tddb: {a: 1.0e7}}\n",
       "aging.tddb.a: expected a number, got the string '1.0e7' "
       "(YAML needs a decimal point and a signed exponent, as in 1.0e+7)", id="tddb_a_1.0e7"),
    _P(BASE + "aging: {nbti: {g0: -.5E-4}}\n",
       "aging.nbti.g0: expected a number, got the string '-.5E-4' "
       "(YAML needs a decimal point and a signed exponent, as in -0.5E-4)", id="g0_-.5E-4"),
    _P(_poisson("1E+2"),
       "workload.poisson.rate: expected a number or list of numbers, got the string '1E+2' "
       "(YAML needs a decimal point and a signed exponent, as in 1.0E+2)", id="rate_1E+2"),
    _P(_poisson([1.0, "2e1"]),
       "workload.poisson.rate[1]: expected a number, got the string '2e1' "
       "(YAML needs a decimal point and a signed exponent, as in 2.0e+1)", id="rate_item_2e1"),
    # a quoted number is a string in any form
    _P("epsilon: '1.0e-4'\n" + BASE, "config.epsilon: expected a number, got the string '1.0e-4'",
       id="epsilon_quoted_exponent"),
    _P("epsilon: '0.5'\n" + BASE, "config.epsilon: expected a number, got the string '0.5'",
       id="epsilon_quoted"),
    _P("epsilon: '1e999'\n" + BASE, "config.epsilon: expected a number", id="epsilon_huge"),
    _P(BASE.replace("b: [0.2, 0.5]", "b: [0.2, 'inf']"),
       "workload.inline.trains.b[1]: expected a number", id="train_item_inf_string"),
]


@pytest.mark.parametrize("text, message", _MESSAGES)
def test_config_error_message(text, message):
    with pytest.raises(ConfigError) as e:
        parse_run_config(text)
    assert str(e.value) == message


@pytest.mark.parametrize("value", ["[]", "null", ""])
def test_inline_train_empty_list_or_null_has_no_spikes(value):
    text = BASE.replace("b: [0.2, 0.5]", f"b: {value}")
    assert len(parse_run_config(text).workload.trains["b"]) == 0


# ---------------------------------------------------------------- exit codes


def test_cli_inline_without_clusters_exits_2(tmp_path, capsys):
    # the empty workload parsed, then map, verify and compare ended in a
    # reshape ValueError (exit 1) and calibrate in an infeasible exit 3
    p = _write(tmp_path, _root(workload={"inline": {"window": 1.0, "clusters": [],
                                                    "trains": {}}}))
    for command in ("map", "verify", "compare", "calibrate"):
        assert main([command, "--config", str(p), "--output", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == (
            "error: workload.inline.clusters: expected a non-empty list\n")


@pytest.mark.parametrize("count", [2**63, 10**30])
def test_cli_poisson_cluster_count_overflow_exits_2(tmp_path, capsys, count):
    # [rate] * count raised OverflowError past the reader: a traceback, exit 1
    p = _write(tmp_path, _root(workload={"poisson": {"num_clusters": count, "rate": 1.0,
                                                     "window": 1.0, "seed": 0}}))
    assert main(["map", "--config", str(p), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: workload.poisson: ")




def test_cli_spike_count_past_the_floats_exits_2(tmp_path, capsys):
    # the exact integer sums held it, and execution_times' float conversion
    # of the load and the spike-hops ended in an OverflowError traceback (exit 1)
    p = _write(tmp_path, BASE.replace("spike_count: 3", f"spike_count: {10 ** 400}"))
    for command in ("map", "verify", "compare"):
        assert main([command, "--config", str(p), "--output", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == (
            "error: workload edges: the spike_count total, times the longest route on the "
            "2x1 mesh, is past the floats\n")
    # 1e308 spike-hops fit the floats on the 2x1 mesh, but not on the 7x1 mesh
    # that sweep derives for 7 tiles, where the longest route is 6 hops
    p = _write(tmp_path, BASE.replace("spike_count: 3", f"spike_count: {10 ** 308}"))
    assert main(["sweep", "--config", str(p), "--output", str(tmp_path / "sweep"),
                 "--axis", "num_tiles", "--values", "7"]) == 2
    assert capsys.readouterr().err == (
        "error: --values: workload edges: the spike_count total, times the longest route on "
        "the 7x1 mesh, is past the floats\n")


def test_cli_latency_past_the_floats_exits_2(tmp_path, capsys, monkeypatch):
    # tau overflowed to inf; with both trains empty the aging is 0, so lambda
    # was inf * 0 = NaN: map and verify ended in _write_json's ValueError
    # (exit 1, the mismatch code), and compare exited 0
    silent = BASE.replace("a: [0.1, 0.4, 0.7]", "a: []").replace("b: [0.2, 0.5]", "b: []")
    p = _write(tmp_path, silent + "perf: {spike_latency: 1.0e+308}\n")
    for command in ("map", "verify", "compare"):
        assert main([command, "--config", str(p), "--output", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == (
            "error: perf: spike_latency 1e+308 s times 3, the spike total, and hop_latency "
            "1e-07 s times 3, the bound on a mapping's spike-hops on the 2x1 mesh, put the "
            "execution time past the floats\n")
    # 3 * 1 * 1e307 s of spike-hops fit the floats on the 2x1 mesh, but 3 * 6 *
    # 1e307 s do not on the 7x1 mesh that sweep derives for 7 tiles, where the
    # longest route is 6
    p = _write(tmp_path, silent + "perf: {hop_latency: 1.0e+307}\n")
    assert main(["sweep", "--config", str(p), "--output", str(tmp_path / "sweep2"),
                 "--axis", "num_tiles", "--values", "2"]) == 0
    capsys.readouterr()
    error = ("error: --values: perf: spike_latency 1e-06 s times 3, the spike total, and "
             "hop_latency 1e+307 s times 18, the bound on a mapping's spike-hops on the 7x1 "
             "mesh, put the execution time past the floats\n")
    assert main(["sweep", "--config", str(p), "--output", str(tmp_path / "sweep7"),
                 "--axis", "num_tiles", "--values", "7"]) == 2
    assert capsys.readouterr().err == error
    # every variant is checked before the first search: 7 is refused before 2 runs
    searches, search = [], cli._search
    monkeypatch.setattr(cli, "_search", lambda *a: searches.append(a) or search(*a))
    out = tmp_path / "sweep27"
    assert main(["sweep", "--config", str(p), "--output", str(out),
                 "--axis", "num_tiles", "--values", "2,7"]) == 2
    assert capsys.readouterr().err == error
    assert searches == [] and not (out / "sweep.csv").exists()


def test_cli_latency_past_the_spike_hop_bound_but_within_the_spike_total_runs(tmp_path):
    # A tile receives at most the spike total, 3, not the spike-hop bound, 18,
    # on the 7x1 mesh: 3 * 4e307 s is finite, and every mapping's tau is that.
    p = _write(tmp_path, BASE.replace("num_tiles: 2", "num_tiles: 7")
               + "perf: {spike_latency: 4.0e+307}\n")
    assert main(["map", "--config", str(p), "--output", str(tmp_path / "map")]) == 0
    summary = json.loads((tmp_path / "map" / "summary.json").read_text(encoding="utf-8"))
    assert summary["tau"] == 3 * 4.0e307 == 1.2e308


@pytest.mark.parametrize("count", [2 ** 63, 2 ** 64 - 1, 10 ** 308])
def test_cli_spike_count_past_int64_still_runs(tmp_path, capsys, count):
    # int64 would wrap; the exact Python-int fallback keeps these counts running
    p = _write(tmp_path, BASE.replace("spike_count: 3", f"spike_count: {count}"))
    for command in ("map", "compare", "verify"):
        assert main([command, "--config", str(p), "--output", str(tmp_path / command)]) in (
            (0, 1) if command == "verify" else (0,))
    capsys.readouterr()
    summary = json.loads((tmp_path / "map" / "summary.json").read_text(encoding="utf-8"))
    # either tile holds b, which receives every spike over one hop
    assert summary["tau"] == float(count) * 1e-6 + float(count) * 1e-7


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = main(["map", "--config", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_schema_exits_2(tmp_path, capsys):
    p = _write(tmp_path, BASE + "bogus_key: 1\n")
    code = main(["map", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_infeasible_exits_3(tmp_path, capsys):
    # three clusters onto two capacity-1 tiles cannot be repaired
    text = BASE.replace(
        "      - {id: b, neuron_count: 4, synapse_count: 8}",
        "      - {id: b, neuron_count: 4, synapse_count: 8}\n"
        "      - {id: c, neuron_count: 4, synapse_count: 8}",
    ).replace("      b: [0.2, 0.5]", "      b: [0.2, 0.5]\n      c: [0.6]")
    p = _write(tmp_path, text)
    code = main(["map", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_calibrate_zero_spikes_exits_3(tmp_path, capsys):
    text = BASE.replace("a: [0.1, 0.4, 0.7]", "a: []").replace("b: [0.2, 0.5]", "b: []")
    text = text.replace("spike_count: 3", "spike_count: 1")
    p = _write(tmp_path, text)
    code = main(["calibrate", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_guard_exceeded_exits_4(tmp_path, capsys):
    # 10 clusters on 10 capacity-1 tiles: 10! feasible mappings, over the guard
    text = """\
hardware:
  num_tiles: 10
  crossbar_dim: 16
  tile_capacity: 1
  device: {kind: diode_1D1R}
pso: {n_particles: 2, max_iterations: 0, seed: 0}
workload:
  poisson: {num_clusters: 10, neurons_per_cluster: 4, synapses_per_cluster: 8,
            kind: chain, rate: 2.0, window: 1.0, seed: 1}
"""
    p = _write(tmp_path, text)
    code = main(["verify", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def _count_searches(monkeypatch) -> list:
    """Patch cli.optimize to record each call; the list it returns grows by one
    per search."""
    calls, search = [], cli.optimize
    monkeypatch.setattr(cli, "optimize", lambda *a, **k: calls.append(a) or search(*a, **k))
    return calls


def _add_cluster_c(text):
    return text.replace(
        "      - {id: b, neuron_count: 4, synapse_count: 8}",
        "      - {id: b, neuron_count: 4, synapse_count: 8}\n"
        "      - {id: c, neuron_count: 4, synapse_count: 8}",
    ).replace("      b: [0.2, 0.5]", "      b: [0.2, 0.5]\n      c: [0.6]")


# check_instance's six refusals, in its order: each as an edit of a config,
# its exit code and the start of its message.
_REFUSALS = {
    "wear_rates": (lambda t: t.replace("temperature: 300.0", "temperature: 0.001"), 2,
                   "aging.tddb: alpha(v_active=3.0 V, T=0.001 K) is inf"),
    "spike_counts": (lambda t: t.replace("spike_count: 3", f"spike_count: {10 ** 309}"), 2,
                     "workload edges: the spike_count total"),
    "latencies": (lambda t: t + "perf: {spike_latency: 1.0e+308}\n", 2,
                  "perf: spike_latency 1e+308 s times 3"),
    "pulse_width": (lambda t: t.replace("    kind: diode_1D1R",
                                        "    kind: diode_1D1R\n    spike_pulse_width: 1.0e-30"),
                    2, "hardware.device.spike_pulse_width: 1e-30 s vanishes"),
    "validate_snn": (lambda t: t.replace("crossbar_dim: 16", "crossbar_dim: 2"), 3,
                     "crossbar_overflow: cluster 'a' has 4 neurons > crossbar_dim 2"),
    "capacity": (_add_cluster_c, 3, "3 clusters exceed total capacity 2"),
}
# Every config error comes before every infeasibility: each exit-2 edit on top
# of each exit-3 edit still exits 2, with the exit-2 message.
_PRECEDENCE = {f"{bad}+{infeasible}": (lambda t, b=bad, i=infeasible:
                                        _REFUSALS[b][0](_REFUSALS[i][0](t)),
                                        *_REFUSALS[bad][1:])
               for bad in _REFUSALS if _REFUSALS[bad][1] == 2
               for infeasible in _REFUSALS if _REFUSALS[infeasible][1] == 3}
_INSTANCE_CASES = {**_REFUSALS, **_PRECEDENCE}


@pytest.mark.parametrize("case", list(_INSTANCE_CASES))
def test_check_instance_refuses_at_load(tmp_path, capsys, monkeypatch, case):
    edit, code, prefix = _INSTANCE_CASES[case]
    searches = _count_searches(monkeypatch)
    p = _write(tmp_path, edit(BASE))
    out = tmp_path / "out"
    assert main(["map", "--config", str(p), "--output", str(out)]) == code
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
    assert searches == []
    assert not out.exists()  # refused before the output directory is made


@pytest.mark.parametrize("case", list(_INSTANCE_CASES))
def test_check_instance_refuses_a_sweep_variant(tmp_path, capsys, monkeypatch, case):
    # The same instance, loaded past the check, is refused again as a variant.
    edit, code, prefix = _INSTANCE_CASES[case]
    with patch.object(config_module, "check_instance"):
        cfg = parse_run_config(edit(BASE))
    monkeypatch.setattr(cli, "load_run_config", lambda path: cfg)
    searches = _count_searches(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", "--config", "run.yaml", "--output", str(out),
                 "--axis", "device_kind", "--values", "diode_1D1R"]) == code
    entry = "--values: " + ("device_kind=diode_1D1R: " if code == 3 else "")
    assert capsys.readouterr().err.startswith(f"error: {entry}{prefix}")
    assert searches == [] and not (out / "sweep.csv").exists()


def test_cli_inline_spike_past_window_exits_2(tmp_path, capsys):
    # a config error, not a traceback whose exit code 1 reads as a verify mismatch
    p = _write(tmp_path, BASE.replace("a: [0.1, 0.4, 0.7]", "a: [0.1, 1.5]"))
    code = main(["map", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "workload.inline.trains.a" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"workload\.inline\.trains\.b"):
        parse_run_config(BASE.replace("b: [0.2, 0.5]", "b: [0.2, 1.0]"))


_POISSON = """\
hardware:
  num_tiles: 2
  crossbar_dim: 16
  device: {kind: diode_1D1R}
workload:
  poisson: {num_clusters: 2, rate: 5.0, window: .inf, seed: 0}
"""


@pytest.mark.parametrize("text, field", [
    (BASE.replace("temperature: 300.0", "temperature: .nan"), r"hardware.*temperature"),
    (BASE.replace("window: 1.0", "window: .inf"), r"workload\.inline\.window"),
    (_POISSON, r"workload\.poisson.*window"),
    ("epsilon: .nan\n" + BASE, r"config\.epsilon"),
    ("target_mttf_years: .inf\n" + BASE, r"config\.target_mttf_years"),
    # NaN latency made every tau NaN, and the Pareto scan never advanced past one
    (BASE + "perf: {spike_latency: .nan}\n", r"perf\.spike_latency"),
    (BASE.replace("b: [0.2, 0.5]", "b: [0.2, .nan]"), r"workload\.inline\.trains\.b\[1\]"),
    # inf used to end in a NaN aging and a traceback from _write_json (exit 1)
    (BASE.replace("kind: diode_1D1R", "kind: diode_1D1R\n    v_active: .inf"),
     r"hardware\.device: v_active must be finite"),
    (BASE + "aging: {tddb: {a: .inf}}\n", r"aging\.tddb: tddb a must be finite"),
    (BASE + "perf: {hop_latency: .inf}\n", r"perf: hop_latency must be finite"),
    # finite constants whose rates leave the floats: alpha underflowed to 0, the
    # combined aging became inf - inf = NaN, and map and verify exited 1
    (BASE + "aging: {tddb: {gamma: 1.0e+300}}\n",
     r"aging\.tddb: alpha\(v_active=3\.0 V, T=300\.0 K\) is 0\.0"),
    (BASE + "aging: {tddb: {ea: 1.0e+10, t_ref: 400.0}}\n", r"aging\.tddb: alpha.* is inf"),
    (BASE + "aging: {nbti: {ea: 1.0e+10}, tddb: {t_ref: 200.0}}\n",
     r"aging\.nbti: g0\(T=300\.0 K\) is inf"),
    (BASE + "aging: {hci: {enabled: true, g0: 1.0e-300, ea: 10.0}, tddb: {t_ref: 400.0}}\n",
     r"aging\.hci: g0\(T=300\.0 K\) is 0\.0"),
    # numpy refused the negative seed with a traceback and exit 1
    (BASE.replace("seed: 3", "seed: -1"), r"pso: seed must be >= 0"),
    # only the product was checked, and repair_rows then ended in StopIteration
    (BASE.replace("temperature: 300.0", "temperature: 300.0\n  mesh: [-1, -2]"),
     r"hardware: mesh -1x-2 must have both dimensions >= 1"),
    # 0.1 + 1.0e-30 == 0.1: a pulse of no length, refused mid-run (exit 1)
    (BASE.replace("kind: diode_1D1R", "kind: diode_1D1R\n    spike_pulse_width: 1.0e-30"),
     r"hardware\.device\.spike_pulse_width: 1e-30 s vanishes .* spike time 0\.1 s"),
], ids=["temperature_nan", "inline_window_inf", "poisson_window_inf", "epsilon_nan",
        "target_mttf_inf", "spike_latency_nan", "spike_time_nan", "v_active_inf",
        "tddb_a_inf", "hop_latency_inf", "tddb_alpha_underflow", "tddb_alpha_overflow",
        "nbti_g0_overflow", "hci_g0_underflow", "pso_seed_negative", "mesh_negative",
        "pulse_width_vanishes"])
def test_cli_non_finite_number_exits_2(tmp_path, capsys, text, field):
    p = _write(tmp_path, text)
    for command in ("map", "verify"):
        code = main([command, "--config", str(p), "--output", str(tmp_path / command)])
        assert code == 2
        assert re.search(field, capsys.readouterr().err)


@pytest.mark.parametrize("text", ["1e-4", "1.0e7", "1E+7", "-.5e3", "+2e-3", "5.e3", "1_0e2"])
def test_yaml_exponent_hint_reads_as_the_same_float(text):
    with pytest.raises(ConfigError) as e:
        parse_run_config(f"epsilon: {text}\n" + BASE)
    form = re.search(r"as in (\S+)\)$", str(e.value)).group(1)
    assert yaml.safe_load(f"x: {form}") == {"x": float(text)}


def test_cli_yaml_exponent_string_exits_2(tmp_path, capsys):
    p = _write(tmp_path, "epsilon: 1e-4\n" + BASE)
    code = main(["map", "--config", str(p), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "as in 1.0e-4" in capsys.readouterr().err


def test_cli_negative_seed_flag_exits_2(tmp_path, capsys):
    p = _write(tmp_path, BASE)
    for extra in (["map"], ["verify"], ["compare"], ["calibrate"],
                  ["sweep", "--axis", "temperature", "--values", "300"]):
        code = main(extra + ["--config", str(p), "--output", str(tmp_path / extra[0]),
                             "--seed", "-3"])
        assert code == 2
        assert "--seed: seed must be >= 0" in capsys.readouterr().err


def test_cli_sweep_refuses_wear_rate_overflow(tmp_path, capsys):
    p = _write(tmp_path, BASE)
    code = main(["sweep", "--config", str(p), "--output", str(tmp_path / "out"),
                 "--axis", "temperature", "--values", "300,0.001"])
    assert code == 2
    assert re.search(r"--values: aging\.tddb: alpha\(v_active=3\.0 V, T=0\.001 K\) is inf",
                     capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_cli_infinite_aging_still_maps(tmp_path, capsys):
    # alpha ~ 1e-313 passes the check, but each pulse's duration / alpha is
    # inf: aging is inf on every mapping, and the front keeps the fastest ones.
    # With both latencies at 0, tau is 0 as well, and lambda is 0, not 0 * inf.
    gamma = "aging: {tddb: {gamma: 425.0}}\n"
    cases = (("timed", gamma, "inf"),
             ("instant", gamma + "perf: {spike_latency: 0.0, hop_latency: 0.0}\n", 0.0))
    for name, extra, lam in cases:
        p = _write(tmp_path, BASE + extra, name=f"{name}.yaml")
        for command in ("map", "verify", "compare"):
            out = tmp_path / name / command
            assert main([command, "--config", str(p), "--output", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / name / "map" / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["aging"] == "inf" and summary["mttf_seconds"] == 0.0
        assert summary["lambda"] == lam and summary["g_best"]["lambda"] == lam
        verify = json.loads((tmp_path / name / "verify" / "verify.json").read_text(
            encoding="utf-8"))
        assert verify["optimum_match"] and verify["front_match"]
        assert verify["pso"]["lambda"] == lam and verify["oracle"]["lambda"] == lam


def test_write_json_refuses_nan(tmp_path):
    _write_json(tmp_path / "inf.json", {"mttf_seconds": math.inf})
    assert json.loads((tmp_path / "inf.json").read_text()) == {"mttf_seconds": "inf"}
    with pytest.raises(ValueError):
        _write_json(tmp_path / "nan.json", {"mttf_seconds": math.nan})


def test_cli_bad_sweep_values_exit_2(tmp_path, capsys):
    p = _write(tmp_path, BASE)
    code = main(["sweep", "--config", str(p), "--output", str(tmp_path / "out"),
                 "--axis", "temperature", "--values", "300,abc"])
    assert code == 2
    code = main(["sweep", "--config", str(p), "--output", str(tmp_path / "out"),
                 "--axis", "device_kind", "--values", "not_a_kind"])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- map


def test_cli_map_writes_expected_files(tmp_path, capsys):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["map", "--config", str(p), "--output", str(out)]) == 0
    for name in ("config.yaml", "mapping.json", "summary.json", "archive.csv",
                 "front.csv", "front.json", "report.csv", "wall_time.txt"):
        assert (out / name).exists(), name
    assert (out / "config.yaml").read_text(encoding="utf-8") == BASE
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    mapping = json.loads((out / "mapping.json").read_text(encoding="utf-8"))
    assert summary["assignment"] == mapping["assignment"]
    assert summary["lambda"] == pytest.approx(summary["tau"] * summary["aging"], rel=1e-12)
    # reported MTTF must be the MTTF of the reported aging
    cfg = load_run_config(str(p))
    expect = mttf_from_aging(summary["aging"], 1.0, cfg.aging.tddb.beta)
    assert summary["mttf_seconds"] == expect
    header = (out / "archive.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "mapping_hash,assignment,tau,aging,lambda,iteration"
    assert "wall time" in capsys.readouterr().out


def test_cli_map_rerun_is_byte_identical(tmp_path):
    p = _write(tmp_path, BASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["map", "--config", str(p), "--output", str(out1)]) == 0
    assert main(["map", "--config", str(p), "--output", str(out2)]) == 0
    for name in ("mapping.json", "summary.json", "archive.csv", "front.csv",
                 "front.json", "report.csv", "config.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_map_matches_library_run(tmp_path):
    p = _write(tmp_path, _chain_config(n_particles=10, max_iterations=20, seed=3))
    out = tmp_path / "out"
    assert main(["map", "--config", str(p), "--output", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))

    cfg = load_run_config(str(p))
    ctx = EvalContext(cfg.workload, cfg.hardware, cfg.aging, cfg.perf)
    res = optimize(cfg.workload.snn, cfg.hardware, cfg.pso_with_seed(9), ctx)
    assert summary["g_best"]["assignment"] == list(res.mapping.assignment)
    assert summary["g_best"]["lambda"] == res.evaluation.lam
    assert summary["total_evaluations"] == res.total_evaluations


def test_cli_map_plot_data(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["map", "--config", str(p), "--output", str(out), "--plot-data"]) == 0
    lines = (out / "plot_data.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "group,label,metric,value"
    assert len(lines) > 1


def test_cli_output_dir_from_config(tmp_path):
    out = tmp_path / "from_config"
    p = _write(tmp_path, f"output: {json.dumps(str(out))}\n" + BASE)
    assert main(["map", "--config", str(p)]) == 0
    assert (out / "summary.json").exists()


# ---------------------------------------------------------------- sweep


def test_cli_sweep_temperature_monotone(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(p), "--output", str(out),
                 "--axis", "temperature", "--values", "300,325,350"]) == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis,value,tau,aging,mttf,tau_norm,aging_norm,mttf_norm"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["temperature"] * 3
    agings = [float(r[3]) for r in rows]
    assert agings[0] < agings[1] < agings[2]
    assert float(rows[0][5]) == 1.0 and float(rows[0][6]) == 1.0 and float(rows[0][7]) == 1.0
    # hotter means faster-aging hardware, shorter life
    assert float(rows[2][7]) < 1.0


def test_cli_sweep_device_kind(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(p), "--output", str(out),
                 "--axis", "device_kind",
                 "--values", "diode_1D1R,transistor_1T1R"]) == 0
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
    diode, transistor = float(rows[0][3]), float(rows[1][3])
    assert transistor < diode


def test_cli_sweep_num_tiles_follows_given_order(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(p), "--output", str(out),
                 "--axis", "num_tiles", "--values", "4,2"]) == 0
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[1] for r in rows] == ["4", "2"]
    assert all(float(r[3]) > 0 for r in rows)


# ---------------------------------------------------------------- compare


def test_cli_compare_rows_and_ratios(tmp_path):
    p = _write(tmp_path, _chain_config(n_particles=10, max_iterations=20, seed=3))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(p), "--output", str(out),
                 "--plot-data"]) == 0
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("strategy,assignment,tau,aging,mttf,tau_ratio,"
                        "aging_ratio,mttf_ratio")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["joint_pso", "perf_only", "random"]
    joint = rows[0]
    assert float(joint[5]) == 1.0 and float(joint[6]) == 1.0 and float(joint[7]) == 1.0
    assert rows[2][1] == ""  # random row aggregates many mappings
    assert rows[0][1] != ""
    for r in rows:
        assert float(r[2]) > 0 and float(r[3]) > 0 and float(r[4]) > 0
    plot = (out / "plot_data.csv").read_text(encoding="utf-8").splitlines()
    assert len(plot) == 1 + 9  # three strategies, three ratio metrics each


def test_cli_compare_perf_only_ignores_aging(tmp_path):
    # the time-only strategy never reads aging, so rescaling the wear
    # constants cannot change which mapping it picks
    base = _chain_config(n_particles=8, max_iterations=15, seed=2)
    rescaled = base + """\
aging:
  tddb: {a: 5.0e+8}
  nbti: {g0: 2.0e-6}
"""
    rows = {}
    for tag, text in (("base", base), ("rescaled", rescaled)):
        p = _write(tmp_path, text, name=f"{tag}.yaml")
        out = tmp_path / tag
        assert main(["compare", "--config", str(p), "--output", str(out)]) == 0
        lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
        rows[tag] = {r.split(",")[0]: r.split(",") for r in lines[1:]}
    assert rows["base"]["perf_only"][1] == rows["rescaled"]["perf_only"][1]
    assert rows["base"]["perf_only"][3] != rows["rescaled"]["perf_only"][3]


def test_cli_compare_deterministic(tmp_path):
    p = _write(tmp_path, _chain_config(n_particles=6, max_iterations=8, seed=5))
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["compare", "--config", str(p), "--output", str(out1)]) == 0
    assert main(["compare", "--config", str(p), "--output", str(out2)]) == 0
    assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()


# ---------------------------------------------------------------- calibrate


def test_cli_calibrate_hits_target(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(p), "--output", str(out)]) == 0
    payload = json.loads((out / "calibrated_params.json").read_text(encoding="utf-8"))
    achieved = payload["achieved_mttf_seconds"]
    target = payload["target_mttf_seconds"]
    assert target == 2.0 * YEAR_SECONDS
    assert math.isclose(achieved, target, rel_tol=1e-3)
    assert payload["params"]["tddb"]["a"] > 0


def test_cli_calibrate_is_a_fixed_point(tmp_path):
    # calibrating an already-calibrated config leaves the constants in place
    p = _write(tmp_path, BASE)
    out1 = tmp_path / "cal1"
    assert main(["calibrate", "--config", str(p), "--output", str(out1)]) == 0
    params = json.loads((out1 / "calibrated_params.json").read_text(
        encoding="utf-8"))["params"]
    recal = BASE + f"""\
aging:
  tddb: {{a: {params["tddb"]["a"]!r}}}
  nbti: {{g0: {params["nbti"]["g0"]!r}}}
  hci: {{g0: {params["hci"]["g0"]!r}}}
"""
    p2 = _write(tmp_path, recal, name="recal.yaml")
    out2 = tmp_path / "cal2"
    assert main(["calibrate", "--config", str(p2), "--output", str(out2)]) == 0
    params2 = json.loads((out2 / "calibrated_params.json").read_text(
        encoding="utf-8"))["params"]
    assert math.isclose(params2["tddb"]["a"], params["tddb"]["a"], rel_tol=1e-6)
    assert math.isclose(params2["nbti"]["g0"], params["nbti"]["g0"], rel_tol=1e-6)


# ---------------------------------------------------------------- verify


def test_cli_verify_match_exits_0(tmp_path):
    p = _write(tmp_path, _chain_config(n_particles=12, max_iterations=30, seed=3))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(p), "--output", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert payload["optimum_match"] is True
    assert payload["pso"]["lambda"] == payload["oracle"]["lambda"]
    assert payload["feasible_mappings"] == 24


def test_cli_verify_mismatch_exits_1(tmp_path, capsys):
    # a starved swarm (2 particles, no iterations) misses the optimum here
    p = _write(tmp_path, _chain_config(n_particles=2, max_iterations=0, seed=0))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(p), "--output", str(out)]) == 1
    payload = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert payload["optimum_match"] is False
    assert payload["pso"]["lambda"] > payload["oracle"]["lambda"]
    assert "MISMATCH" in capsys.readouterr().out


# ---------------------------------------------------------------- output bytes


_BASELINE = Path(__file__).resolve().parents[1] / "configs" / "baseline.yaml"

# SHA-256 of every JSON/CSV file each command writes on baseline.yaml with
# --seed 5, recorded before the commands were folded into one pipeline.
_GOLDEN = {
    ("map", "--plot-data"): {
        "archive.csv": "4e1621307a8034d0dcda73c5041ceab405275d63127a98f58d990b35ae37779f",
        "front.csv": "6a9aec2a2996164e5975262cdc43605c0765ff770db5dae68df2308997adac55",
        "front.json": "beaad8df47d78c044dc57cc4b70f4d8496e980e32df126729116dbfef494a121",
        "mapping.json": "7bbfea2df4c4ed4c3bbcc30ba1cc14a5ef59cc8a63f6bf2e637ecd238cf63e34",
        "plot_data.csv": "c01ea1a49c27ddf47d1a027ef0110c8aa074e57c7678f4bf687a29163639a91c",
        "report.csv": "2a9df8e3bd58a4e290ec9640545b660458ff39ecfb982f9a47c725d7dd977584",
        "summary.json": "7f558ef21da502df62e8d61f4e999717aee7b6d350d7f4a3b17642c549fee876",
    },
    ("compare", "--plot-data"): {
        "compare.csv": "945e052ab2fa5031e9bc052a4fea874e273964401c41e919009d5453b318f4b7",
        "plot_data.csv": "47733f981fe8d5f06bddeb561da8aa3e8c9117b15fa2b10f9697d8d18b24d560",
    },
    ("sweep", "--axis", "temperature", "--values", "300,330,360", "--plot-data"): {
        "plot_data.csv": "81beba485f0cf6375626d0ed98bcdb560f32ea360ed06e1f1b823897654c1556",
        "sweep.csv": "7fec2fb6225d8c2735c779229efcd2d80c55274eccdefd26a53949fcc6660814",
    },
    ("sweep", "--axis", "device_kind", "--values", "diode_1D1R,transistor_1T1R",
     "--plot-data"): {
        "plot_data.csv": "ea35a90c09a49491c1e78e59ded6ca10924b172cc6637d86821f899c0cf24fea",
        "sweep.csv": "b3be41166219b052ebb6c137c6ec7ca5b738c5f40c7493541da6cb1dd291553b",
    },
    ("sweep", "--axis", "num_tiles", "--values", "4,6", "--plot-data"): {
        "plot_data.csv": "a9aeb3cbd4006bb690b39d6bedc44fbcffd52fc0fbd1eb280b3a94b98303e505",
        "sweep.csv": "25761711f7482afcb1bde08b6614969c40edbc4ec2e22353dbafe2ec6a53f4d4",
    },
    ("verify",): {
        "verify.json": "b24790d3f83724215e3da3d6ede0bf4f62d24230526fa4922863f3a7b6f93138",
    },
    ("calibrate",): {
        "calibrated_params.json":
            "78186a95bf153ca0fd2c488b8c93ebee6f8734c75869bd61adcdc1f69e1ac8f4",
    },
}


@pytest.mark.parametrize("argv", list(_GOLDEN), ids=lambda a: "-".join(a[:3:2]))
def test_cli_outputs_match_golden(tmp_path, capsys, argv):
    out = tmp_path / "out"
    cmd, *extra = argv
    assert main([cmd, "--config", str(_BASELINE), "--output", str(out),
                 "--seed", "5", *extra]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.suffix in (".json", ".csv")}
    assert digests == _GOLDEN[argv]


def test_cli_calibrate_medium_matches_golden(tmp_path, capsys):
    # The first-fit baseline of medium.yaml puts three clusters on each of four
    # tiles, so calibrate sees every stressed tile's (tddb, nbti, hci) triple
    # three times. SHA-256 recorded before calibrate read those triples from
    # the baseline's aging report.
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(_BASELINE.with_name("medium.yaml")),
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "calibrated_params.json").read_bytes()).hexdigest() == (
        "5f127f433691513a5c4b91ea01eb341d786d23512d7ba1ce4157eafb8a42d9b5")


# SHA-256 of every JSON/CSV file map and compare write on medium.yaml with
# --seed 5, recorded before the swarm kept its personal bests as assignment
# rows. Its tiles hold three clusters each, so the swarm's repair and the
# random baseline's evict onto shared tiles, which baseline.yaml never does.
_GOLDEN_MEDIUM = {
    "map": {
        "archive.csv": "0e214968ff44ec55b1d7ce06c7c006a0268b87d52e2f9e507133dae7c2b75ecd",
        "front.csv": "f7f737b8791633512d88b4f5162a4a559500abf835476a935eaea7146394a3fe",
        "front.json": "e28036067e9b27c8a07915be44cbe10c9b2b6c53451b75ebf551e94fd6690f6d",
        "mapping.json": "23469292d3dbf8f8b1b9c9fc1161b15ca7f845d2e93075c93e485c7ac9446812",
        "report.csv": "c42420fa9395428c6ff2a88cf9215e1fedbdb3b83ab8dde330b06ca45e914f01",
        "summary.json": "cf40665e3252a9c0ddc490d118ef22051f72d826884fb415597593a95125af6f",
    },
    "compare": {
        "compare.csv": "753415c8b217406cd12d90a7b471362bf787eacdc7bf4d1d18bc283eddc0a452",
    },
}


@pytest.mark.parametrize("command", list(_GOLDEN_MEDIUM))
def test_cli_medium_outputs_match_golden(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(_BASELINE.with_name("medium.yaml")),
                 "--output", str(out), "--seed", "5"]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.suffix in (".json", ".csv")}
    assert digests == _GOLDEN_MEDIUM[command]


def test_cli_sweep_refuses_an_infeasible_value_before_any_search(tmp_path, capsys,
                                                                  monkeypatch):
    # 12 clusters fit 9 tiles of capacity 3 but not 2: the 9-tile search is not run.
    searches = _count_searches(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(_BASELINE.with_name("medium.yaml")),
                 "--output", str(out), "--axis", "num_tiles", "--values", "9,2"]) == 3
    assert capsys.readouterr().err == (
        "error: --values: num_tiles=2: 12 clusters exceed total capacity 6\n")
    assert searches == [] and not (out / "sweep.csv").exists()


def test_cli_verify_refuses_over_the_guard_before_any_search(tmp_path, capsys, monkeypatch):
    searches = _count_searches(monkeypatch)
    assert main(["verify", "--config", str(_BASELINE.with_name("medium.yaml")),
                 "--output", str(tmp_path / "out")]) == 4
    assert "over the enumeration guard" in capsys.readouterr().err
    assert searches == []


def test_cli_verify_enumerates_the_feasible_set_once(tmp_path, capsys):
    # the optimum and the front are read off one shared objective table
    with patch.object(oracle_module, "_canonical_rows",
                      wraps=oracle_module._canonical_rows) as tables:
        assert main(["verify", "--config", str(_BASELINE),
                     "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert tables.call_count == 1


def _loads_numpy_ma(code: str) -> bool:
    """Whether running code in a fresh interpreter leaves numpy.ma imported."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import sys; sys.path.insert(0, {src!r})\n{code}\nprint('numpy.ma' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, check=True)
    return run.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("cmd", ["map", "verify"])
def test_cli_command_does_not_import_numpy_ma(tmp_path, cmd):
    # A plain np.unique imports numpy.ma, a large package, in NumPy 2. Older
    # NumPy versions import it with numpy itself.
    argv = [cmd, "--config", str(_BASELINE), "--output", str(tmp_path / "out")]
    loaded = _loads_numpy_ma(f"import wearmap.cli\nwearmap.cli.main({argv!r})")
    assert not loaded or _loads_numpy_ma("import numpy")


def test_cli_sweep_plot_data_matches_norm_columns(tmp_path):
    p = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(p), "--output", str(out),
                 "--axis", "temperature", "--values", "300,325,350", "--plot-data"]) == 0
    lines = (out / "plot_data.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "group,label,metric,value"
    plot = [line.split(",") for line in lines[1:]]
    expect = []
    for row in (line.split(",") for line in
                (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]):
        for metric, value in zip(("tau_norm", "aging_norm", "mttf_norm"), row[5:8]):
            expect.append([row[0], row[1], metric, value])
    assert len(plot) == 3 * 3
    assert plot == expect


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("where", ["file", "below_file", "echo", "map_data_file",
                                   "verify_data_file"])
def test_cli_unusable_output_dir_exits_2(tmp_path, capsys, via_config, where):
    # The output path is an existing file, lies below one, or is a directory
    # where config.yaml, or a data file the command writes after its run,
    # cannot be written (it is a directory itself). verify's own exit 1 means
    # "swarm missed the optimum", so a write failure must not end in it.
    blocker = tmp_path / "blocker"
    command, blocked = {"echo": ("map", "config.yaml"),
                        "map_data_file": ("map", "summary.json"),
                        "verify_data_file": ("verify", "verify.json")}.get(where, ("map", None))
    if blocked:
        (blocker / blocked).mkdir(parents=True)
    else:
        blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "out" if where == "below_file" else blocker
    if via_config:
        p = _write(tmp_path, f"output: {json.dumps(str(out))}\n" + BASE)
        argv = [command, "--config", str(p)]
    else:
        argv = [command, "--config", str(_write(tmp_path, BASE)), "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(out)) in err
    if not blocked:
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"


# Few distinct values, so that ties are common; inf of both signs included.
_SAMPLES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf, -math.inf]),
                     st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SAMPLES, min_size=1, max_size=9))
@example([3.0, 1.0, 2.0])
@example([4.0, 1.0, 3.0, 2.0])
@example([1.0, 1.0, 2.0, 2.0])
@example([1.0, math.inf])
@example([math.inf, math.inf, 0.0])
@example([-math.inf, math.inf])
def test_median_is_statistics_median(values):
    # compare's random baseline takes its medians without the statistics
    # module; odd and even lengths, ties and inf give statistics.median's
    # value, its sign of zero and its NaN (-inf + inf) included.
    assert repr(cli._median(values)) == repr(statistics.median(values))


def _mapping_hash(assignment):
    """The first 12 hex digits of the SHA-256 of the tile indices joined by
    commas, as mapping.json, front.csv and archive.csv give it."""
    return hashlib.sha256(",".join(map(str, assignment)).encode("ascii")).hexdigest()[:12]


def test_write_archive_is_what_csv_writer_writes(tmp_path):
    # archive.csv is formatted line by line from the archive's columns. Its
    # bytes are what csv.writer writes from each entry's hash, assignment
    # text, floats and iteration: for tiny, zero, large and inf floats, tile
    # indices past 255, and iterations past 65535.
    entries = [((0, 299, 7), 1.5e-300, math.inf, math.inf, 0),
               ((300, 1, 1), 0.0, 5e-324, 0.0, 1),
               ((12, 0, 256), 123.456, 1e16, 1.2345678901234567e18, 70000)]
    columns = list(zip(*entries))
    archive = Archive(np.array(columns[0], dtype=np.uint16),
                      *(np.array(c) for c in columns[1:4]), np.array(columns[4], dtype=np.uint32))
    cli._write_archive(tmp_path / "archive.csv", archive, 301)
    cli._write_csv(tmp_path / "reference.csv",
                   ["mapping_hash", "assignment", "tau", "aging", "lambda", "iteration"],
                   [[_mapping_hash(a), " ".join(map(str, a)), *values] for a, *values in entries])
    assert (tmp_path / "archive.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
