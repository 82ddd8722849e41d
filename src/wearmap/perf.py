"""Execution-time surrogate for a mapped workload on the tile mesh.

The window's cost has two parts. Compute: each tile serializes the spikes
arriving at its hosted clusters (incoming edge spike counts), one
spike_latency each; tiles run in parallel, so the slowest tile bounds the
window (set tile_parallelism=False to model a serialized array instead).
Communication: every inter-tile spike pays hop_latency per mesh hop on the
shortest (manhattan) route, summed over edges since the mesh is shared.

execution_times evaluates a whole (n, C) array of assignments at once; the
swarm and the exhaustive oracle both call it, and execution_time is its
validated one-mapping case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ClusteredSnn, HardwareConfig, Mapping, require_valid_mapping


@dataclass(frozen=True)
class PerfParams:
    spike_latency: float = 1e-6
    hop_latency: float = 1e-7
    tile_parallelism: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spike_latency) and self.spike_latency >= 0.0):
            raise ValueError("spike_latency must be finite and >= 0")
        if not (math.isfinite(self.hop_latency) and self.hop_latency >= 0.0):
            raise ValueError("hop_latency must be finite and >= 0")


def execution_times(
    rows: np.ndarray, snn: ClusteredSnn, hw: HardwareConfig, p: PerfParams
) -> np.ndarray:
    """Estimated window time of every assignment in rows, an (n, C) integer
    array of feasible tile indices (not validated here).

    Spike arrivals and spike-hops are exact integer sums; the float operations
    come last, once per row. Edges with unresolvable endpoints contribute
    nothing (validate_snn reports them).
    """
    cols = np.ascontiguousarray(np.asarray(rows).T)  # (C, n): one row per cluster
    index_of = snn.index_of
    edges = [
        (index_of[e.src], index_of[e.dst], e.spike_count)
        for e in snn.edges
        if e.src in index_of and e.dst in index_of
    ]
    width, height = hw.mesh
    # Python ints never overflow; fall back to them where int64 could.
    bound = sum(c for _, _, c in edges) * max(1, width + height - 2)
    dtype = np.int64 if bound < 2 ** 63 else object

    tiles = np.arange(hw.num_tiles)
    x, y = (tiles % width).astype(dtype)[cols], (tiles // width).astype(dtype)[cols]
    n = cols.shape[1]
    arrivals = np.zeros((hw.num_tiles, n), dtype=dtype)
    comm = np.zeros(n, dtype=dtype)
    every_row = np.arange(n)
    for si, di, count in edges:
        arrivals[cols[di], every_row] += count
        comm += count * (abs(x[si] - x[di]) + abs(y[si] - y[di]))
    load = arrivals.max(axis=0) if p.tile_parallelism else arrivals.sum(axis=0)
    return (load * p.spike_latency + comm * p.hop_latency).astype(np.float64)


def execution_time(
    snn: ClusteredSnn, mapping: Mapping, hw: HardwareConfig, p: PerfParams
) -> float:
    """Estimated time to play one workload window under the given placement."""
    require_valid_mapping(mapping, snn, hw)
    rows = np.asarray([mapping.assignment], dtype=np.int64)
    return float(execution_times(rows, snn, hw, p)[0])
