"""Aging-aware mapping of clustered SNN workloads onto tiled crossbar hardware.

The package models per-tile circuit wear (TDDB, NBTI, optional HCI) driven by
spike-train voltage stress, a surrogate execution-time model over a 2D mesh,
and a constrained binary particle swarm that minimizes the product of the two,
with Pareto-front extraction and an exhaustive oracle for verification.
"""

from .aging import (
    AgingParams,
    calibrate_baseline,
    combine_aging,
    evaluate_hardware_aging,
    hci_aging,
    hosted_set_aging_bounds,
    hosted_set_mechanism_agings,
    nbti_aging,
    reliability_at,
    tddb_aging,
)
from .config import ConfigError, load_run_config, parse_run_config
from .model import Mapping, build_voltage_trace, mapping_violations
from .oracle import brute_force_optimum, brute_force_pareto, count_feasible_mappings
from .perf import PerfParams, execution_time, execution_times
from .swarm import (
    Archive,
    EvalContext,
    InfeasibleError,
    OptimizeResult,
    PsoConfig,
    SwarmState,
    binarize,
    extract_pareto,
    optimize,
    repair,
    repair_rows,
    select_final,
    step_swarm,
)

__version__ = "0.1.0"

# The names README's "Library use" and "Key entry points" document; every
# other name is imported from its submodule (wearmap.model, wearmap.swarm, ...).
# tests/test_package.py holds README, this list and the benchmark to each other.
__all__ = [
    "AgingParams",
    "Archive",
    "ConfigError",
    "EvalContext",
    "InfeasibleError",
    "Mapping",
    "OptimizeResult",
    "PerfParams",
    "PsoConfig",
    "SwarmState",
    "binarize",
    "brute_force_optimum",
    "brute_force_pareto",
    "build_voltage_trace",
    "calibrate_baseline",
    "combine_aging",
    "count_feasible_mappings",
    "evaluate_hardware_aging",
    "execution_time",
    "execution_times",
    "extract_pareto",
    "hci_aging",
    "hosted_set_aging_bounds",
    "hosted_set_mechanism_agings",
    "load_run_config",
    "mapping_violations",
    "nbti_aging",
    "optimize",
    "parse_run_config",
    "reliability_at",
    "repair",
    "repair_rows",
    "select_final",
    "step_swarm",
    "tddb_aging",
]
