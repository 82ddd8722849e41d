"""Execution-time surrogate for a mapped workload on the tile mesh.

The window's cost has two parts. Compute: each tile serializes the spikes
arriving at its hosted clusters (incoming edge spike counts), one
spike_latency each; tiles run in parallel, so the slowest tile bounds the
window (set tile_parallelism=False to model a serialized array instead).
Communication: every inter-tile spike pays hop_latency per mesh hop on the
shortest (manhattan) route, summed over edges since the mesh is shared.

execution_times evaluates a whole (n, C) array of assignments at once;
EvalContext.evaluate_rows, the batch evaluator of the swarm and the exhaustive
oracle, calls it on blocks of bounded size, and execution_time is its
validated one-mapping case. It has no loop over edges: the edges' spike counts
are summed per receiving cluster once per instance (ClusteredSnn.edge_arrays),
and one np.add.at puts those totals onto the tiles; the spike-hops of all
edges are two integer matrix products of the per-row hop counts with the
edge counts, one per mesh axis, so one (n, E) hop array is held at a time.
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


def spike_hop_bound(snn: ClusteredSnn, hw: HardwareConfig) -> int:
    """The edges' spike counts summed, times the longest route on hw's mesh:
    no tile's spike arrivals and no mapping's spike-hops exceed it."""
    width, height = hw.mesh
    return snn.spike_total * max(1, width + height - 2)


def execution_times(
    rows: np.ndarray, snn: ClusteredSnn, hw: HardwareConfig, p: PerfParams
) -> np.ndarray:
    """Estimated window time of every assignment in rows, an (n, C) array of
    feasible tile indices of any integer type (not validated here).

    Spike arrivals and spike-hops are exact integer sums; the float operations
    come last, once per row. Only snn.resolved_edges contribute: dangling
    edges add nothing.
    """
    rows = np.asarray(rows)
    src, dst, counts, inbound = snn.edge_arrays
    if spike_hop_bound(snn, hw) >= 2 ** 63:  # Python ints never overflow; int64 could
        counts, inbound = counts.astype(object), inbound.astype(object)
    n = rows.shape[0]
    arrivals = np.zeros((hw.num_tiles, n), dtype=inbound.dtype)
    np.add.at(arrivals, (rows, np.arange(n)[:, None]), inbound)
    comm = 0
    for coord in np.divmod(np.arange(hw.num_tiles), hw.mesh[0]):  # tile rows, then columns
        at = coord[rows]  # each cluster's, (n, C)
        hops = at[:, src]  # (n, E)
        hops -= at[:, dst]
        comm = comm + np.abs(hops, out=hops) @ counts
    load = arrivals.max(axis=0) if p.tile_parallelism else arrivals.sum(axis=0)
    return np.asarray(load * p.spike_latency + comm * p.hop_latency, dtype=np.float64)


def execution_time(
    snn: ClusteredSnn, mapping: Mapping, hw: HardwareConfig, p: PerfParams
) -> float:
    """Estimated time to play one workload window under the given placement."""
    require_valid_mapping(mapping, snn, hw)
    rows = np.asarray([mapping.assignment], dtype=np.int64)
    return float(execution_times(rows, snn, hw, p)[0])
