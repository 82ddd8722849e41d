"""Output checks for one benchmark run of a wearmap CLI command.

Each check reads the files the command wrote and returns a list of problems;
an empty list means the run is correct. The expensive part (recomputing the
reported mappings) runs once per distinct output digest: runs that share a
digest wrote byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Data files whose bytes must repeat in every run of one config (timings
# live in wall_time.txt and stdout only). map also hashes archive.csv because
# the front check reads it.
DIGEST_FILES = {
    "map": ("summary.json", "front.csv", "archive.csv"),
    "compare": ("compare.csv",),
    "verify": ("verify.json",),
}

REL_TOL = 1e-12


def digest(command: str, out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES[command]:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _assignment(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def non_dominated(points: list[tuple[float, float, tuple[int, ...]]]) -> set:
    """The benchmark's own quadratic Pareto filter over (tau, aging, assignment)."""
    return {
        p for p in points
        if not any(q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                   for q in points)
    }


def reported_mappings(command: str, out_dir: Path) -> list[dict]:
    """Every mapping the command reports, with the objectives it reports for it."""
    if command == "map":
        s = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        g = s["g_best"]
        found = [
            {"what": "selected", "assignment": tuple(s["assignment"]), "tau": s["tau"],
             "aging": s["aging"], "lambda": s["lambda"]},
            {"what": "g_best", "assignment": tuple(g["assignment"]), "tau": g["tau"],
             "aging": g["aging"], "lambda": g["lambda"]},
        ]
        for i, r in enumerate(_csv_rows(out_dir / "front.csv")):
            found.append({"what": f"front[{i}]", "assignment": _assignment(r["assignment"]),
                          "tau": float(r["tau"]), "aging": float(r["aging"])})
        return found
    if command == "compare":
        return [
            {"what": r["strategy"], "assignment": _assignment(r["assignment"]),
             "tau": float(r["tau"]), "aging": float(r["aging"])}
            for r in _csv_rows(out_dir / "compare.csv") if r["strategy"] != "random"
        ]
    v = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
    return [
        {"what": side, "assignment": tuple(v[side]["assignment"]), "tau": v[side]["tau"],
         "aging": v[side]["aging"], "lambda": v[side]["lambda"]}
        for side in ("pso", "oracle")
    ]


def results(command: str, out_dir: Path) -> dict[str, float]:
    """Simulated outcome of the command: the reported mapping's tau and aging,
    and for verify the swarm's gap to the oracle's optimum."""
    first = reported_mappings(command, out_dir)[0]  # selection, joint_pso row, pso
    out = {"result.tau_s": first["tau"], "result.aging": first["aging"], "oracle.gap": 0.0}
    if command == "verify":
        v = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
        out["oracle.gap"] = v["pso"]["lambda"] / v["oracle"]["lambda"] - 1.0
    return out


def check_outputs(command: str, cfg, out_dir: Path) -> list[str]:
    """Semantic checks of one run's files against the run config cfg."""
    from wearmap import Mapping, evaluate_hardware_aging, execution_time, mapping_violations
    from wearmap.oracle import count_feasible_mappings

    snn, hw = cfg.workload.snn, cfg.hardware
    problems: list[str] = []

    def close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)

    for r in reported_mappings(command, out_dir):
        m = Mapping(r["assignment"])
        bad = mapping_violations(m, snn, hw)
        if bad:
            problems.append(f"{r['what']}: infeasible mapping: {'; '.join(bad)}")
            continue
        if "lambda" in r and not close(r["lambda"], r["tau"] * r["aging"]):
            problems.append(f"{r['what']}: lambda {r['lambda']!r} != tau*aging")
        tau = execution_time(snn, m, hw, cfg.perf)
        aging = evaluate_hardware_aging(cfg.workload, m, hw, cfg.aging).hardware
        if not (close(r["tau"], tau) and close(r["aging"], aging)):
            problems.append(f"{r['what']}: reports tau {r['tau']!r}, aging {r['aging']!r}; "
                            f"recomputed {tau!r}, {aging!r}")

    if command == "map":
        archive = [(float(r["tau"]), float(r["aging"]), _assignment(r["assignment"]))
                   for r in _csv_rows(out_dir / "archive.csv")]
        front = {(float(r["tau"]), float(r["aging"]), _assignment(r["assignment"]))
                 for r in _csv_rows(out_dir / "front.csv")}
        if front != non_dominated(archive):
            problems.append("front.csv is not the non-dominated set of archive.csv")
    elif command == "verify":
        v = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
        if v["oracle"]["lambda"] > v["pso"]["lambda"]:
            problems.append("oracle lambda exceeds the swarm's: the oracle is not optimal")
        if v["optimum_match"] != (v["pso"]["lambda"] == v["oracle"]["lambda"]):
            problems.append("optimum_match disagrees with the reported lambdas")
        expected = count_feasible_mappings(len(snn.clusters), hw.num_tiles, hw.tile_capacity)
        if v["feasible_mappings"] != expected:
            problems.append(f"feasible_mappings {v['feasible_mappings']} != {expected}")
    return problems


def check_exit_code(command: str, allowed: tuple[int, ...], code: int,
                    out_dir: Path) -> list[str]:
    if code not in allowed:
        return [f"exit code {code} not in {allowed}"]
    if command == "verify":
        v = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
        if (code == 0) != v["optimum_match"]:
            return [f"exit code {code} disagrees with optimum_match {v['optimum_match']}"]
    return []
