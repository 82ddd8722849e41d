"""Run one wearmap CLI command in this fresh interpreter and report on it.

usage: python3 child.py SRC_DIR REPORT_JSON TRACE(0|1) CLI_ARGS...

Imports wearmap from SRC_DIR, calls wearmap.cli.main(CLI_ARGS) and writes
REPORT_JSON with the CLI's exit code, the set-up time (import of wearmap plus
config load and workload generation), the process's peak RSS and, with
TRACE=1, the per-layer span and counter totals. The spans themselves go to
REPORT_JSON's stem + ".npz".
"""

from time import monotonic, perf_counter

T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _install_tracer(cli):
    """Wrap every layer boundary at the module where it is called."""
    import numpy as np

    from tracer import Tracer

    import wearmap.aging as aging
    import wearmap.oracle as oracle
    import wearmap.perf as perf
    import wearmap.swarm as swarm

    tr = Tracer()
    counts = tr.counts
    count_feasible = getattr(oracle, "count_feasible_mappings", None)

    seen: dict[int, tuple[object, set]] = {}  # id(ctx) -> (ctx kept alive, keys)

    def evaluate_before(args, kwargs):
        ctx = args[0]
        mapping = args[1] if len(args) > 1 else kwargs["mapping"]
        key = tuple(mapping.assignment)
        keys = seen.setdefault(id(ctx), (ctx, set()))[1]
        if key in keys:
            counts["swarm.memo_hits"] += 1
        else:
            keys.add(key)
            counts["aging.tile_lookups"] += len(set(key))

    def kernel_before(args, kwargs):
        members, workload = args[0], args[1]
        snn = workload.snn
        sources = set(members)
        for ci in members:
            sources |= snn.predecessor_sets[ci]
        counts["aging.kernel_spikes"] += sum(
            len(workload.trains[snn.clusters[ci].id]) for ci in sources)

    pending = []

    def repair_before(args, kwargs):
        bits = np.asarray(args[0]) != 0
        one_hot = bits.sum(axis=1) == 1
        pref = kwargs.get("pref")
        chosen = np.argmax(pref, axis=1) if pref is not None else np.zeros(len(bits), int)
        pending.append((one_hot, np.where(one_hot, np.argmax(bits, axis=1), chosen)))

    def repair_after(args, kwargs, result):
        one_hot, intended = pending.pop()
        fixed = int((~one_hot).sum())
        evicted = int((np.asarray(result.assignment) != intended).sum())
        counts["swarm.repair_rows_fixed"] += fixed
        counts["swarm.repair_evictions"] += evicted
        counts["swarm.repair_clean"] += fixed == 0 and evicted == 0

    def optimize_after(args, kwargs, result):
        counts["swarm.archive_size"] += len(result.archive)
        counts["swarm.front_size"] += len(result.front.points)

    def oracle_before(args, kwargs):
        snn, hw = args[0], args[1]
        counts["oracle.mappings"] += count_feasible(
            len(snn.clusters), hw.num_tiles, hw.tile_capacity)

    def pareto_after(args, kwargs, result):
        counts["oracle.front_size"] += len(result.points)

    repair_counters = ("swarm.repair_rows_fixed", "swarm.repair_evictions",
                       "swarm.repair_clean")
    tr.wrap(cli, "load_run_config", "config.load")
    commands = getattr(cli, "_COMMANDS", {})
    for name in list(commands):
        tr.wrap(commands, name, "cli.command")
    tr.wrap(cli, "optimize", "swarm.optimize", after=optimize_after,
            counters=("swarm.archive_size", "swarm.front_size"))
    tr.wrap(cli, "repair", "swarm.repair", repair_before, repair_after, repair_counters)
    tr.wrap(cli, "evaluate_hardware_aging", "aging.report")
    tr.wrap(cli, "brute_force_optimum", "oracle.optimum", oracle_before,
            counters=("oracle.mappings",))
    tr.wrap(cli, "brute_force_pareto", "oracle.pareto", oracle_before, pareto_after,
            counters=("oracle.mappings", "oracle.front_size"))
    tr.wrap(swarm, "initialize_swarm", "swarm.init")
    tr.wrap(swarm, "step_swarm", "swarm.step")
    tr.wrap(swarm, "binarize", "swarm.binarize")
    tr.wrap(swarm, "repair", "swarm.repair", repair_before, repair_after, repair_counters)
    tr.wrap(getattr(swarm, "EvalContext", None), "evaluate", "swarm.evaluate",
            evaluate_before, counters=("swarm.memo_hits", "aging.tile_lookups"))
    tr.wrap(swarm, "execution_time", "perf.exec_time")
    tr.wrap(swarm, "hosted_set_mechanism_agings", "aging.kernel", kernel_before,
            counters=("aging.kernel_spikes",))
    tr.wrap(swarm, "combine_aging", "aging.combine")
    tr.wrap(swarm, "extract_pareto", "swarm.pareto")
    tr.wrap(aging, "build_voltage_trace", "model.voltage_trace")
    tr.wrap(perf, "require_valid_mapping", "model.validate")
    tr.wrap(aging, "require_valid_mapping", "model.validate")
    return tr


def _peak_rss_mb() -> float:
    """Peak RSS of this program since its exec. ru_maxrss would also count the
    launching process's RSS, which Linux carries across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    src, report_path, trace, cli_args = argv[0], Path(argv[1]), argv[2] == "1", argv[3:]
    sys.path.insert(0, src)
    import wearmap.cli as cli

    import_s = perf_counter() - T0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"wearmap was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = _install_tracer(cli) if trace else None
    load_s, setup_end = [], []
    load = getattr(cli, "load_run_config", None)
    if tracer is None and load is not None:

        def timed_load(*args, **kwargs):
            t = perf_counter()
            try:
                return load(*args, **kwargs)
            finally:
                load_s.append(perf_counter() - t)
                setup_end.append(monotonic())

        cli.load_run_config = timed_load

    code = cli.main(cli_args)
    t_post = perf_counter()
    report = {
        "exit_code": code,
        "import_s": import_s,
        "config_load_s": sum(load_s),
        "setup_end": setup_end[-1] if setup_end else None,  # system-wide monotonic clock
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing_targets"] = tracer.missing
        tracer.dump(report_path.with_suffix(".npz"))
        report["post_s"] = perf_counter() - t_post  # trace bookkeeping after the command
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
