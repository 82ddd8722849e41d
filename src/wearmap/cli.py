"""Command line interface.

Subcommands: calibrate, map, sweep, compare, verify. Every run echoes the
config file into the output directory and reports wall time on stdout and in
wall_time.txt; data files (JSON/CSV) carry no timestamps or timings, so a
rerun with the same config and seed is byte identical.

Exit codes: 0 success, 1 verify mismatch, 2 config error, 3 infeasible
instance (including calibration with zero stress), 4 enumeration guard
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .aging import (
    AgingParams,
    CalibrationError,
    calibrate_baseline,
    evaluate_hardware_aging,
    mttf_from_aging,
)
from .config import YEAR_SECONDS, ConfigError, RunConfig, load_run_config
from .model import (
    DeviceProfile,
    HardwareConfig,
    MappingConstraintError,
    Workload,
    first_fit_mapping,
    validate_snn,
)
from .oracle import (
    GuardExceededError,
    brute_force_optimum,
    brute_force_pareto,
    count_feasible_mappings,
)
from .swarm import EvalContext, InfeasibleError, OptimizeResult, optimize, repair, select_final

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4

SWEEP_AXES = ("temperature", "device_kind", "num_tiles")


def _sanitize(obj):
    """inf is not portable JSON; serialize it as the string 'inf'. NaN has no
    such reading and is refused by _write_json."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
                    + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _f(x) -> float:
    return float(x)


def _hash(assignment: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, assignment)).encode("ascii")).hexdigest()[:12]


def _astr(assignment: tuple[int, ...]) -> str:
    return " ".join(map(str, assignment))


def _require_feasible(workload: Workload, hw: HardwareConfig) -> None:
    problems = validate_snn(workload.snn, hw)
    if problems:
        raise InfeasibleError("; ".join(str(p) for p in problems))


def _params_dict(p: AgingParams) -> dict:
    return {
        "tddb": {"a": p.tddb.a, "gamma": p.tddb.gamma, "beta": p.tddb.beta,
                 "ea": p.tddb.ea, "t_ref": p.tddb.t_ref},
        "nbti": {"g0": p.nbti.g0, "m": p.nbti.m, "n": p.nbti.n,
                 "v_threshold": p.nbti.v_threshold, "ea": p.nbti.ea},
        "hci": {"g0": p.hci.g0, "m": p.hci.m, "n": p.hci.n,
                "v_threshold": p.hci.v_threshold, "ea": p.hci.ea,
                "enabled": p.hci.enabled},
    }


def _ratio(x: float, base: float) -> float:
    """x relative to base, defined for the 0 and inf corners."""
    if x == base:
        return 1.0
    if base == 0.0:
        return math.inf
    if math.isinf(base):
        return 0.0
    return x / base


def _run_pso(cfg: RunConfig, seed: int | None, hw: HardwareConfig,
             objective: str = "lambda") -> tuple[EvalContext, OptimizeResult]:
    ctx = EvalContext(cfg.workload, hw, cfg.aging, cfg.perf, objective=objective)
    res = optimize(cfg.workload.snn, hw, cfg.pso_with_seed(seed), ctx)
    return ctx, res


def cmd_calibrate(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    _require_feasible(workload, hw)
    baseline = first_fit_mapping(workload.snn, hw)
    calibrated = calibrate_baseline(workload, baseline, hw, cfg.aging,
                                    cfg.target_mttf_seconds)
    report = evaluate_hardware_aging(workload, baseline, hw, calibrated)
    _write_json(out_dir / "calibrated_params.json", {
        "params": _params_dict(calibrated),
        "baseline_assignment": list(baseline.assignment),
        "achieved_mttf_seconds": report.mttf,
        "achieved_mttf_years": report.mttf / YEAR_SECONDS,
        "target_mttf_seconds": cfg.target_mttf_seconds,
    })
    print(f"calibrated to mttf {report.mttf:.6e} s "
          f"({report.mttf / YEAR_SECONDS:.4f} years), "
          f"target {cfg.target_mttf_seconds:.6e} s")
    print(f"wrote {out_dir / 'calibrated_params.json'}")
    return EXIT_OK


def cmd_map(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    _require_feasible(workload, hw)
    ctx, res = _run_pso(cfg, args.seed, hw)
    selected = select_final(res.front, cfg.epsilon)
    ev = ctx.evaluate(selected)
    report = evaluate_hardware_aging(workload, selected, hw, cfg.aging)

    _write_json(out_dir / "mapping.json", {
        "assignment": list(selected.assignment),
        "mapping_hash": _hash(selected.assignment),
    })
    _write_csv(
        out_dir / "archive.csv",
        ["mapping_hash", "assignment", "tau", "aging", "lambda", "iteration"],
        [[_hash(e.assignment), _astr(e.assignment), _f(e.tau), _f(e.aging),
          _f(e.lam), e.iteration] for e in res.archive],
    )
    front_points = [(p.mapping.assignment, _f(p.tau), _f(p.aging))
                    for p in res.front.points]
    _write_csv(
        out_dir / "front.csv",
        ["mapping_hash", "assignment", "tau", "aging"],
        [[_hash(a), _astr(a), t, g] for a, t, g in front_points],
    )
    _write_json(out_dir / "front.json", {
        "points": [{"assignment": list(a), "tau": t, "aging": g}
                   for a, t, g in front_points],
    })
    neuron_rows = sorted(
        ((na.tile, cid, _f(na.tddb), _f(na.nbti), _f(na.hci), _f(na.overall))
         for cid, na in report.per_neuron.items()),
        key=lambda r: (r[0], r[1]),
    )
    _write_csv(out_dir / "report.csv",
               ["tile", "neuron", "tddb", "nbti", "hci", "overall"],
               [list(r) for r in neuron_rows])
    _write_json(out_dir / "summary.json", {
        "assignment": list(selected.assignment),
        "mapping_hash": _hash(selected.assignment),
        "tau": ev.tau,
        "aging": ev.aging,
        "lambda": ev.lam,
        "mttf_seconds": report.mttf,
        "epsilon": cfg.epsilon,
        "front_size": len(res.front.points),
        "iterations": res.iterations,
        "total_evaluations": res.total_evaluations,
        "unique_mappings": res.unique_mappings,
        "g_best": {
            "assignment": list(res.mapping.assignment),
            "tau": res.evaluation.tau,
            "aging": res.evaluation.aging,
            "lambda": res.evaluation.lam,
        },
    })
    if args.plot_data:
        rows = []
        for i, (a, t, g) in enumerate(front_points):
            rows.append(["front", str(i), "tau", t])
            rows.append(["front", str(i), "aging", g])
        _write_csv(out_dir / "plot_data.csv", ["group", "label", "metric", "value"], rows)
    print(f"selected mapping {list(selected.assignment)} "
          f"(tau {ev.tau:.6e} s, aging {ev.aging:.6e}, mttf {report.mttf:.6e} s)")
    print(f"front has {len(res.front.points)} point(s); "
          f"{res.unique_mappings} unique mappings over {res.total_evaluations} evaluations")
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def _parse_axis_values(axis: str, text: str) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError("--values: expected a comma separated, non-empty list")
    try:
        if axis == "temperature":
            return [float(s) for s in items]
        if axis == "num_tiles":
            return [int(s) for s in items]
    except ValueError as e:
        raise ConfigError(f"--values: {e}") from e
    return items  # device_kind: validated when the profile is built


def _hardware_variant(hw: HardwareConfig, axis: str, value) -> HardwareConfig:
    try:
        if axis == "temperature":
            return replace(hw, temperature=value)
        if axis == "num_tiles":
            # An explicit mesh only fits the original tile count; re-derive.
            return replace(hw, num_tiles=value, mesh=None)
        profile = DeviceProfile(kind=value,
                                spike_pulse_width=hw.device_profile.spike_pulse_width)
        return replace(hw, device_profile=profile)
    except ValueError as e:
        raise ConfigError(f"--values: {e}") from e


def cmd_sweep(args, cfg: RunConfig, out_dir: Path) -> int:
    values = _parse_axis_values(args.axis, args.values)
    workload = cfg.workload
    beta = cfg.aging.tddb.beta
    window = workload.snn.workload_window
    results = []
    for value in values:
        hw = _hardware_variant(cfg.hardware, args.axis, value)
        _require_feasible(workload, hw)
        ctx, res = _run_pso(cfg, args.seed, hw)
        selected = select_final(res.front, cfg.epsilon)
        ev = ctx.evaluate(selected)
        results.append((value, ev.tau, ev.aging, mttf_from_aging(ev.aging, window, beta)))

    _, tau0, aging0, mttf0 = results[0]
    rows = [
        [value, _f(tau), _f(aging), _f(mttf),
         _f(_ratio(tau, tau0)), _f(_ratio(aging, aging0)), _f(_ratio(mttf, mttf0))]
        for value, tau, aging, mttf in results
    ]
    _write_csv(out_dir / "sweep.csv",
               ["axis", "value", "tau", "aging", "mttf", "tau_norm", "aging_norm",
                "mttf_norm"],
               [[args.axis] + r for r in rows])
    if args.plot_data:
        prows = []
        for value, tau, aging, mttf in results:
            prows.append([args.axis, str(value), "tau_norm", _f(_ratio(tau, tau0))])
            prows.append([args.axis, str(value), "aging_norm", _f(_ratio(aging, aging0))])
            prows.append([args.axis, str(value), "mttf_norm", _f(_ratio(mttf, mttf0))])
        _write_csv(out_dir / "plot_data.csv", ["group", "label", "metric", "value"], prows)
    for value, tau, aging, mttf in results:
        print(f"{args.axis}={value}: tau {tau:.6e} s, aging {aging:.6e}, mttf {mttf:.6e} s")
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    _require_feasible(workload, hw)
    beta = cfg.aging.tddb.beta
    window = workload.snn.workload_window
    pso = cfg.pso_with_seed(args.seed)

    ctx_joint, res_joint = _run_pso(cfg, args.seed, hw, objective="lambda")
    sel_joint = select_final(res_joint.front, cfg.epsilon)
    ev_joint = ctx_joint.evaluate(sel_joint)

    _, res_perf = _run_pso(cfg, args.seed, hw, objective="tau")
    ev_perf = res_perf.evaluation

    # Random baseline: repaired uniform-random corners, one shared stream.
    # Medians are taken per metric, so the row is not one single mapping.
    rng = np.random.default_rng(pso.seed)
    num_clusters = len(workload.snn.clusters)
    samples = []
    for _ in range(cfg.n_random):
        bits = rng.integers(0, 2, size=(num_clusters, hw.num_tiles))
        pref = rng.random((num_clusters, hw.num_tiles))
        samples.append(ctx_joint.evaluate(repair(bits, hw, rng, pref=pref)))
    rand_tau = statistics.median(s.tau for s in samples)
    rand_aging = statistics.median(s.aging for s in samples)

    strategies = [
        ("joint_pso", _astr(sel_joint.assignment), ev_joint.tau, ev_joint.aging),
        ("perf_only", _astr(res_perf.mapping.assignment), ev_perf.tau, ev_perf.aging),
        ("random", "", rand_tau, rand_aging),
    ]
    base_tau, base_aging = ev_joint.tau, ev_joint.aging
    base_mttf = mttf_from_aging(base_aging, window, beta)
    rows = []
    for name, assignment, tau, aging in strategies:
        mttf = mttf_from_aging(aging, window, beta)
        rows.append([name, assignment, _f(tau), _f(aging), _f(mttf),
                     _f(_ratio(tau, base_tau)), _f(_ratio(aging, base_aging)),
                     _f(_ratio(mttf, base_mttf))])
    _write_csv(out_dir / "compare.csv",
               ["strategy", "assignment", "tau", "aging", "mttf", "tau_ratio",
                "aging_ratio", "mttf_ratio"],
               rows)
    if args.plot_data:
        prows = []
        for row in rows:
            for metric, val in zip(("tau_ratio", "aging_ratio", "mttf_ratio"), row[5:8]):
                prows.append(["compare", row[0], metric, val])
        _write_csv(out_dir / "plot_data.csv", ["group", "label", "metric", "value"], prows)
    for row in rows:
        print(f"{row[0]}: tau {row[2]:.6e} s, aging {row[3]:.6e}, mttf {row[4]:.6e} s "
              f"(aging ratio {row[6]:.4f})")
    print(f"wrote {out_dir / 'compare.csv'}")
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    _require_feasible(workload, hw)
    ctx, res = _run_pso(cfg, args.seed, hw)
    best = brute_force_optimum(workload.snn, hw, ctx)
    oracle_front = brute_force_pareto(workload.snn, hw, ctx)

    optimum_match = res.evaluation.lam == best.evaluation.lam
    pso_pairs = {(p.tau, p.aging) for p in res.front.points}
    oracle_pairs = {(p.tau, p.aging) for p in oracle_front.points}
    front_match = pso_pairs == oracle_pairs

    _write_json(out_dir / "verify.json", {
        "pso": {
            "assignment": list(res.mapping.assignment),
            "lambda": res.evaluation.lam,
            "tau": res.evaluation.tau,
            "aging": res.evaluation.aging,
        },
        "oracle": {
            "assignment": list(best.mapping.assignment),
            "lambda": best.evaluation.lam,
            "tau": best.evaluation.tau,
            "aging": best.evaluation.aging,
        },
        "optimum_match": optimum_match,
        "front_match": front_match,
        "pso_front_size": len(res.front.points),
        "oracle_front_size": len(oracle_front.points),
        "feasible_mappings": count_feasible_mappings(
            len(workload.snn.clusters), hw.num_tiles, hw.tile_capacity),
    })
    print(f"pso lambda {res.evaluation.lam:.6e}, oracle lambda {best.evaluation.lam:.6e}"
          f" -> {'match' if optimum_match else 'MISMATCH'}")
    print(f"front objective sets {'match' if front_match else 'differ'} "
          f"(pso {len(pso_pairs)}, oracle {len(oracle_pairs)})")
    print(f"wrote {out_dir / 'verify.json'}")
    return EXIT_OK if optimum_match else EXIT_VERIFY_MISMATCH


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "map": cmd_map,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearmap",
        description="Aging-aware mapping of clustered SNN workloads onto tiled "
                    "crossbar hardware.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="run configuration YAML")
        sp.add_argument("--output", default=None,
                        help="output directory (default: config 'output' or ./wearmap_out)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the swarm seed from the config")

    sp = sub.add_parser("calibrate",
                        help="rescale aging constants so the first-fit baseline "
                             "hits the target lifetime")
    common(sp)
    sp = sub.add_parser("map", help="optimize a mapping and write mapping, "
                                    "archive, front, and summary files")
    common(sp)
    sp.add_argument("--plot-data", action="store_true",
                    help="also write plot_data.csv in long form")
    sp = sub.add_parser("sweep", help="re-run the mapping across one hardware axis")
    common(sp)
    sp.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    sp.add_argument("--values", required=True,
                    help="comma separated values for the chosen axis")
    sp.add_argument("--plot-data", action="store_true",
                    help="also write plot_data.csv in long form")
    sp = sub.add_parser("compare",
                        help="compare joint optimization against time-only and "
                             "random mapping baselines")
    common(sp)
    sp.add_argument("--plot-data", action="store_true",
                    help="also write plot_data.csv in long form")
    sp = sub.add_parser("verify",
                        help="check the swarm result against brute-force enumeration")
    common(sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_run_config(args.config)
        out_dir = Path(args.output or cfg.output or "wearmap_out")
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.yaml").write_text(cfg.raw_text, encoding="utf-8")
        code = _COMMANDS[args.command](args, cfg, out_dir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, CalibrationError, MappingConstraintError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GuardExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    wall = time.perf_counter() - t0
    (out_dir / "wall_time.txt").write_text(f"{wall:.6f}\n", encoding="utf-8")
    print(f"wall time: {wall:.3f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
