"""Command line interface.

Subcommands: calibrate, map, sweep, compare, verify. Every run echoes the
config file into the output directory and reports wall time on stdout and in
wall_time.txt; data files (JSON/CSV) carry no timestamps or timings, so a
rerun with the same config and seed is byte identical.

No search starts before the run is known to go ahead. The instance
(config.check_instance) and --seed are checked at load, before the output
directory is made; sweep checks every variant and verify applies its guard.

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
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .aging import (
    CalibrationError,
    calibrate_baseline,
    evaluate_hardware_aging,
    mttf_from_aging,
)
from .config import (
    YEAR_SECONDS,
    ConfigError,
    RunConfig,
    check_instance,
    load_run_config,
)
from .model import (
    DeviceProfile,
    HardwareConfig,
    Mapping,
    MappingConstraintError,
    first_fit_mapping,
)
from .oracle import (
    GuardExceededError,
    _objective_table,
    brute_force_optimum,
    brute_force_pareto,
    count_feasible_mappings,
)
from .swarm import (
    Archive,
    EvalContext,
    Evaluation,
    InfeasibleError,
    _random_corner,
    lambdas,
    optimize,
    repair,
    select_final,
)

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4

# Each sweep axis: the parser of one --values item, and the hardware variant
# that value gives.
_AXES = {
    "temperature": (float, lambda hw, v: replace(hw, temperature=v)),
    "device_kind": (str, lambda hw, v: replace(hw, device_profile=DeviceProfile(
        kind=v, spike_pulse_width=hw.device_profile.spike_pulse_width))),
    # An explicit mesh only fits the original tile count; re-derive.
    "num_tiles": (int, lambda hw, v: replace(hw, num_tiles=v, mesh=None)),
}
SWEEP_AXES = tuple(_AXES)


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


def _hash(assignment: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, assignment)).encode("ascii")).hexdigest()[:12]


def _astr(assignment: tuple[int, ...]) -> str:
    return " ".join(map(str, assignment))


def _write_archive(path: Path, archive: Archive, num_tiles: int) -> None:
    """archive.csv, streamed from the archive's columns one entry at a time.
    Each assignment's text is built once, and hashed as _hash does, with
    commas for its spaces. The lines are the ones csv.writer would write: no
    field holds a comma, a quote or a line break, and floats print as repr."""
    names = [str(t) for t in range(num_tiles)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("mapping_hash,assignment,tau,aging,lambda,iteration\n")
        for row, tau, aging, lam, iteration in archive.records():
            text = " ".join([names[t] for t in row])
            digest = hashlib.sha256(text.replace(" ", ",").encode("ascii")).hexdigest()[:12]
            f.write(f"{digest},{text},{tau!r},{aging!r},{lam!r},{iteration}\n")


def _median(values: list[float]) -> float:
    """statistics.median, without that module's imports: the middle of the
    sorted values, or the mean of the two middle ones."""
    data = sorted(values)
    i = len(data) // 2
    return data[i] if len(data) % 2 else (data[i - 1] + data[i]) / 2


def _record(mapping: Mapping, ev: Evaluation) -> dict:
    """A mapping's assignment and objectives, as summary.json and verify.json
    report each evaluated mapping."""
    return {"assignment": list(mapping.assignment), "tau": ev.tau, "aging": ev.aging,
            "lambda": ev.lam}


def _ratio(x: float, base: float) -> float:
    """x relative to base, defined for the 0 and inf corners."""
    if x == base:
        return 1.0
    if base == 0.0:
        return math.inf
    if math.isinf(base):
        return 0.0
    return x / base


def _relative_rows(cfg: RunConfig, results) -> list[list]:
    """(key..., tau, aging) rows as (key..., tau, aging, mttf, then tau, aging
    and mttf each relative to the first row)."""
    window, beta = cfg.workload.snn.workload_window, cfg.aging.tddb.beta
    rows = [[*key, float(tau), float(aging), float(mttf_from_aging(aging, window, beta))]
            for *key, tau, aging in results]
    base = rows[0][-3:]
    return [row + [float(_ratio(x, b)) for x, b in zip(row[-3:], base)] for row in rows]


def _write_plot_data(args, out_dir: Path, series) -> None:
    """With --plot-data, write plot_data.csv in long form: one row per metric
    of each (group, label, metrics, values) in series."""
    if args.plot_data:
        _write_csv(out_dir / "plot_data.csv", ["group", "label", "metric", "value"],
                   [[group, label, metric, value] for group, label, metrics, values in series
                    for metric, value in zip(metrics, values)])


def _search(cfg: RunConfig, hw: HardwareConfig, ctx: EvalContext | None = None):
    """The joint swarm run on hw (in ctx, or a fresh context), the mapping
    select_final picks from its front, and that mapping's evaluation, read off
    its front point. A caller keeps only what it uses, so that no result
    outlives its use."""
    ctx = ctx or EvalContext(cfg.workload, hw, cfg.aging, cfg.perf)
    res = optimize(cfg.workload.snn, hw, cfg.pso, ctx)
    selected = select_final(res.front, cfg.epsilon)
    point = next(p for p in res.front.points if p.mapping == selected)
    lam = lambdas(point.tau, point.aging).item()
    return res, selected, Evaluation(point.tau, point.aging, lam)


def cmd_calibrate(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    baseline = first_fit_mapping(workload.snn, hw)
    calibrated = calibrate_baseline(workload, baseline, hw, cfg.aging,
                                    cfg.target_mttf_seconds)
    report = evaluate_hardware_aging(workload, baseline, hw, calibrated)
    _write_json(out_dir / "calibrated_params.json", {
        "params": asdict(calibrated),
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
    res, selected, ev = _search(cfg, cfg.hardware)
    report = evaluate_hardware_aging(cfg.workload, selected, cfg.hardware, cfg.aging)

    _write_json(out_dir / "mapping.json", {
        "assignment": list(selected.assignment),
        "mapping_hash": _hash(selected.assignment),
    })
    _write_archive(out_dir / "archive.csv", res.archive, cfg.hardware.num_tiles)
    front_points = [(p.mapping.assignment, float(p.tau), float(p.aging))
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
        ((na.tile, cid, float(na.tddb), float(na.nbti), float(na.hci), float(na.overall))
         for cid, na in report.per_neuron.items()),
        key=lambda r: (r[0], r[1]),
    )
    _write_csv(out_dir / "report.csv",
               ["tile", "neuron", "tddb", "nbti", "hci", "overall"],
               [list(r) for r in neuron_rows])
    _write_json(out_dir / "summary.json", {
        **_record(selected, ev),
        "mapping_hash": _hash(selected.assignment),
        "mttf_seconds": report.mttf,
        "epsilon": cfg.epsilon,
        "front_size": len(res.front.points),
        "iterations": res.iterations,
        "total_evaluations": res.total_evaluations,
        "unique_mappings": res.unique_mappings,
        "g_best": _record(res.mapping, res.evaluation),
    })
    _write_plot_data(args, out_dir, [("front", str(i), ("tau", "aging"), (t, g))
                                     for i, (_, t, g) in enumerate(front_points)])
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
    parse = _AXES[axis][0]
    try:
        return [parse(s) for s in items]
    except ValueError as e:
        raise ConfigError(f"--values: {e}") from e


def _hardware_variant(cfg: RunConfig, axis: str, value) -> HardwareConfig:
    """cfg's hardware with axis set to value, checked with cfg's workload by
    check_instance. Its errors name --values, and an infeasible one the value."""
    try:
        hw = _AXES[axis][1](cfg.hardware, value)
        check_instance(cfg.workload, hw, cfg.aging, cfg.perf)
    except ValueError as e:  # ConfigError included
        raise ConfigError(f"--values: {e}") from e
    except InfeasibleError as e:
        raise InfeasibleError(f"--values: {axis}={value}: {e}") from e
    return hw


def cmd_sweep(args, cfg: RunConfig, out_dir: Path) -> int:
    values = _parse_axis_values(args.axis, args.values)
    # Every variant is checked before the first search, so a refused value
    # exits at once.
    variants = [_hardware_variant(cfg, args.axis, value) for value in values]
    results = []
    for value, hw in zip(values, variants):
        ev = _search(cfg, hw)[-1]
        results.append((args.axis, value, ev.tau, ev.aging))
    header = ["axis", "value", "tau", "aging", "mttf", "tau_norm", "aging_norm", "mttf_norm"]
    rows = _relative_rows(cfg, results)
    _write_csv(out_dir / "sweep.csv", header, rows)
    _write_plot_data(args, out_dir, [(r[0], str(r[1]), header[-3:], r[-3:]) for r in rows])
    for axis, value, tau, aging, mttf, *_ in rows:
        print(f"{axis}={value}: tau {tau:.6e} s, aging {aging:.6e}, mttf {mttf:.6e} s")
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig, out_dir: Path) -> int:
    hw = cfg.hardware
    ctx_joint = EvalContext(cfg.workload, hw, cfg.aging, cfg.perf)
    sel_joint, ev_joint = _search(cfg, hw, ctx_joint)[1:]
    res_perf = optimize(cfg.workload.snn, hw, cfg.pso,
                        EvalContext(cfg.workload, hw, cfg.aging, cfg.perf, objective="tau"))
    ev_perf = res_perf.evaluation

    # Random baseline: repaired uniform-random corners, one shared stream.
    # Medians are taken per metric, so the row is not one single mapping.
    rng = np.random.default_rng(cfg.pso.seed)
    shape = (len(cfg.workload.snn.clusters), hw.num_tiles)
    assignments = []
    for _ in range(cfg.n_random):
        bits, pref = _random_corner(rng, shape)
        assignments.append(repair(bits, hw, rng, pref=pref).assignment)
    samples = ctx_joint.evaluate_rows(np.array(assignments))
    rand_tau = _median(samples.tau.tolist())
    rand_aging = _median(samples.aging.tolist())

    header = ["strategy", "assignment", "tau", "aging", "mttf", "tau_ratio", "aging_ratio",
              "mttf_ratio"]
    rows = _relative_rows(cfg, [
        ("joint_pso", _astr(sel_joint.assignment), ev_joint.tau, ev_joint.aging),
        ("perf_only", _astr(res_perf.mapping.assignment), ev_perf.tau, ev_perf.aging),
        ("random", "", rand_tau, rand_aging),
    ])
    _write_csv(out_dir / "compare.csv", header, rows)
    _write_plot_data(args, out_dir, [("compare", r[0], header[-3:], r[-3:]) for r in rows])
    for row in rows:
        print(f"{row[0]}: tau {row[2]:.6e} s, aging {row[3]:.6e}, mttf {row[4]:.6e} s "
              f"(aging ratio {row[6]:.4f})")
    print(f"wrote {out_dir / 'compare.csv'}")
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig, out_dir: Path) -> int:
    workload, hw = cfg.workload, cfg.hardware
    ctx = EvalContext(workload, hw, cfg.aging, cfg.perf)
    # The table first: an instance over the guard is refused before any search.
    table = _objective_table(workload.snn, hw, ctx)
    res = optimize(workload.snn, hw, cfg.pso, ctx)
    best = brute_force_optimum(workload.snn, hw, ctx, table=table)
    oracle_front = brute_force_pareto(workload.snn, hw, ctx, table=table)

    optimum_match = res.evaluation.lam == best.evaluation.lam
    pso_pairs = {(p.tau, p.aging) for p in res.front.points}
    oracle_pairs = {(p.tau, p.aging) for p in oracle_front.points}
    front_match = pso_pairs == oracle_pairs

    _write_json(out_dir / "verify.json", {
        "pso": _record(res.mapping, res.evaluation),
        "oracle": _record(best.mapping, best.evaluation),
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
    helps = {
        "calibrate": "rescale aging constants so the first-fit baseline hits the target lifetime",
        "map": "optimize a mapping and write mapping, archive, front, and summary files",
        "sweep": "re-run the mapping across one hardware axis",
        "compare": "compare joint optimization against time-only and random mapping baselines",
        "verify": "check the swarm result against brute-force enumeration",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="run configuration YAML")
        sp.add_argument("--output", default=None,
                        help="output directory (default: config 'output' or ./wearmap_out)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the swarm seed from the config")
    sub.choices["sweep"].add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    sub.choices["sweep"].add_argument("--values", required=True,
                                      help="comma separated values for the chosen axis")
    for name in ("map", "sweep", "compare"):
        sub.choices[name].add_argument("--plot-data", action="store_true",
                                       help="also write plot_data.csv in long form")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_run_config(args.config)
        cfg.pso = cfg.pso_with_seed(args.seed)
        out_dir = Path(args.output or cfg.output or "wearmap_out")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "config.yaml").write_text(cfg.raw_text, encoding="utf-8")
            code = _COMMANDS[args.command](args, cfg, out_dir)
            wall = time.perf_counter() - t0
            (out_dir / "wall_time.txt").write_text(f"{wall:.6f}\n", encoding="utf-8")
        except OSError as e:  # the commands read no files; this is a write
            raise ConfigError(f"cannot write output directory {str(out_dir)!r}: {e}") from e
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, CalibrationError, MappingConstraintError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GuardExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    print(f"wall time: {wall:.3f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
