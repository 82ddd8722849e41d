"""wearmap benchmark: one workload, closed loop, one client.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's panel of YAML configs from --seed (see
workloads.py), then runs its wearmap CLI command (wearmap.cli.main) on them
round after round, each time in a fresh single-threaded interpreter, for about
--seconds seconds (at least two rounds). The benchmark and the command share
one CPU, on which probe.py samples the host's speed while the command runs;
the timed metrics are scaled by it. Every run's outputs are checked.
With --trace 1 one more, traced run on the panel's first config follows and
the per-layer metrics are printed instead of the end-to-end ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the details (environment,
workload shape, quartiles, digests). Work files go to .bench_work/<workload>/.
Exits 2 without a result when src/wearmap is not next to this directory.
See bench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 2
DEADLINE_S = 150  # no command starts, and every command is killed, past this
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WEAR_MODEL_NOTE = ("the wear model has no silicon reference, so its aging numbers are "
                   "unvalidated; only the search is checked, against the oracle")


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def _environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "note": WEAR_MODEL_NOTE,
    }


def _run(spec, config: Path, run_dir: Path, trace: bool, env: dict, deadline: float) -> dict:
    """One CLI command in a fresh interpreter, probing the host's speed while it
    runs (see probe.py); wall time is spawn to exit."""
    import probe

    run_dir.mkdir()
    report = run_dir / "report.json"
    out = run_dir / "out"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(report), str(int(trace)),
           spec.command, "--config", str(config), "--output", str(out)]
    samples: list[tuple[float, float]] = []
    with open(run_dir / "stdout.txt", "wb") as so, open(run_dir / "stderr.txt", "wb") as se:
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=run_dir)
        try:
            while proc.poll() is None and time.perf_counter() < deadline:
                samples.append(probe.sample())
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if time.perf_counter() >= deadline and code != 0:
        code = "killed at the deadline"
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    if not samples:
        samples.append(probe.sample())
    run = {"config": config, "dir": run_dir, "out": out, "wall_s": wall, "cpu_s": cpu,
           "slowdown": probe.slowdown(samples), "problems": []}
    if code != 0 or not report.is_file():
        tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        run["problems"].append(f"runner exited {code}: {' | '.join(tail)}")
        return run
    run["report"] = json.loads(report.read_text(encoding="utf-8"))
    post = run["report"].get("post_s", 0.0)
    run["wall_s"] = wall - post
    run["command_s"] = (cpu - post) / run["slowdown"]
    # Set-up is scaled by the samples taken before it ended.
    end = run["report"].get("setup_end") or float("inf")
    run["setup_slowdown"] = probe.slowdown([s for s in samples if s[1] <= end] or samples)
    run["setup_s"] = ((run["report"]["import_s"] + run["report"]["config_load_s"])
                      / run["setup_slowdown"])
    return run


def _check(spec, runs: list[dict], cfgs: dict) -> dict[str, list[str]]:
    """Check every run; within a config, the data files' digest must repeat."""
    import checks

    semantic: dict[str, list[str]] = {}
    digests: dict[str, list[str]] = {}
    for run in runs:
        if "report" not in run:
            continue
        try:
            run["problems"] += checks.check_exit_code(
                spec.command, spec.exit_codes, run["report"]["exit_code"], run["out"])
            run["digest"] = checks.digest(spec.command, run["out"])
            if run["digest"] not in semantic:
                semantic[run["digest"]] = checks.check_outputs(
                    spec.command, cfgs[run["config"]], run["out"])
        except (OSError, ValueError, KeyError) as e:  # missing or malformed output
            run["problems"].append(f"unreadable output: {e!r}")
            continue
        run["problems"] += semantic[run["digest"]]
        name = run["config"].name
        seen = digests.setdefault(name, [])
        if seen and run["digest"] != seen[0]:
            run["problems"].append(f"output digest differs from the first run of {name}")
        if run["digest"] not in seen:
            seen.append(run["digest"])
    return digests


def _per_layer(spec, traced: dict, walls: list[float]) -> dict[str, float | None]:
    """Per-layer metrics of the traced run, with ratios and results added."""
    import checks

    layers = dict(traced["report"]["layers"])

    def ratio(num: str, den: str) -> float | None:
        if num in layers and den in layers:
            return layers[num] / layers[den] if layers[den] else 0.0
        return None

    layers["aging.kernel_miss_ratio"] = ratio("aging.kernel_calls", "aging.tile_lookups")
    layers["swarm.memo_hit_ratio"] = ratio("swarm.memo_hits", "swarm.evaluate_calls")
    layers["swarm.repair_clean_ratio"] = ratio("swarm.repair_clean", "swarm.repair_calls")
    layers["cli.self_s"] = layers.get("cli.command_s")
    layers["trace.wall_s"] = traced["wall_s"]
    if walls:
        # The untraced runs of the traced run's config are the fair baseline.
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
    if not traced["problems"]:
        layers.update(checks.results(spec.command, traced["out"]))
    return layers


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, config_yaml

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "wearmap" / "cli.py").is_file():
        print(f"error: no wearmap sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from wearmap import count_feasible_mappings, load_run_config

    spec = WORKLOADS[args.workload]
    work = WORK / spec.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs, cfgs, config_sha = [], {}, {}
    for swarm_seed in spec.swarm_seeds(args.seed % 2 ** 62):
        text = config_yaml(spec, swarm_seed)
        path = work / f"config-{swarm_seed}.yaml"
        path.write_text(text, encoding="utf-8")
        configs.append(path)
        cfgs[path] = load_run_config(str(path))
        config_sha[path.name] = hashlib.sha256(text.encode()).hexdigest()

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    # The command inherits this CPU, so the probe samples the core it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Warm the file cache and byte-code cache, which an installed tool has too.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import wearmap.cli"], env=env, timeout=60)

    # Closed loop over whole rounds of the panel; at least two rounds, so that
    # every config repeats and its digest can be compared. Another round
    # starts while it would end no more than half a round past --seconds.
    runs: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for config in configs:
            runs.append(_run(spec, config, work / f"run{len(runs):03d}", False, env, deadline))
        now = time.perf_counter()
        if now >= deadline or (len(runs) >= MIN_ROUNDS * len(configs)
                               and now - t_start + (now - t_round) / 2 > args.seconds):
            break
    traced = (_run(spec, configs[0], work / "traced", True, env, deadline)
              if args.trace else None)

    every = runs + ([traced] if traced else [])
    digests = _check(spec, every, cfgs)
    failed = sum(1 for r in every if r["problems"])
    good = [r for r in runs if "report" in r]
    walls = [r["wall_s"] for r in good]
    commands = [r["command_s"] for r in good]
    setups = [r["setup_s"] for r in good]
    rss = [r["report"]["peak_rss_mb"] for r in good]
    budget = spec.evaluation_budget(
        count_feasible_mappings(spec.clusters, spec.tiles, spec.capacity))

    detail = {
        "workload": spec.name, "shape": spec.shape(), "seed": args.seed,
        "config_sha256": config_sha, "evaluation_budget": budget,
        "environment": _environment(),
        "command_s": _quartiles(commands) if commands else None,
        "wall_s": _quartiles(walls) if walls else None,
        "evals_per_s": budget / statistics.median(commands) if commands else None,
        "setup_s": _quartiles(setups) if setups else None,
        "peak_rss_mb": _quartiles(rss) if rss else None,
        "digests": digests,
        "runs": [{k: r.get(k) for k in ("wall_s", "cpu_s", "slowdown", "command_s",
                                         "setup_slowdown", "setup_s")}
                 | {"config": r["config"].name} for r in runs],
        "problems": {r["dir"].name: r["problems"] for r in every if r["problems"]},
    }
    values: dict[str, float] = {}
    if args.trace:
        units = _units("per_layer")
        if "report" in traced:
            base = [r["wall_s"] for r in good if r["config"] == configs[0]]
            layers = _per_layer(spec, traced, base)
            detail["layers"] = layers
            detail["missing_targets"] = traced["report"]["missing_targets"]
            values = {k: layers[k] for k in units if layers.get(k) is not None}
        missing = [k for k in units if k not in values]
        if missing:
            detail["missing_metrics"] = missing
    else:
        units = _units("end_to_end")
        if walls:
            values = {
                "command_s": statistics.median(commands),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss),
            }
    (work / "result.json").write_text(json.dumps(detail, indent=1, default=str) + "\n",
                                      encoding="utf-8")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": failed == 0 and bool(walls),
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
