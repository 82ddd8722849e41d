"""Execution-time surrogate for a mapped workload on the tile mesh.

The window's cost has two parts. Compute: each tile serializes the spikes
arriving at its hosted clusters (incoming edge spike counts), one
spike_latency each; tiles run in parallel, so the slowest tile bounds the
window (set tile_parallelism=False to model a serialized array instead).
Communication: every inter-tile spike pays hop_latency per mesh hop on the
shortest (manhattan) route, summed over edges since the mesh is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def execution_time(
    snn: ClusteredSnn, mapping: Mapping, hw: HardwareConfig, p: PerfParams
) -> float:
    """Estimated time to play one workload window under the given placement.

    Edges with unresolvable endpoints contribute nothing (validate_snn reports
    them; this function stays total on parseable input).
    """
    require_valid_mapping(mapping, snn, hw)
    index_of = snn.index_of

    arrivals = [0] * hw.num_tiles
    comm_spike_hops = 0
    for e in snn.edges:
        si = index_of.get(e.src)
        di = index_of.get(e.dst)
        if si is None or di is None:
            continue
        src_tile = mapping.assignment[si]
        dst_tile = mapping.assignment[di]
        arrivals[dst_tile] += e.spike_count
        comm_spike_hops += e.spike_count * hw.manhattan_hops(src_tile, dst_tile)

    load = max(arrivals) if p.tile_parallelism else sum(arrivals)
    return load * p.spike_latency + comm_spike_hops * p.hop_latency
