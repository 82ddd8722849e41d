"""Domain types for clustered spiking workloads, tile hardware, and stress traces.

A workload is a graph of neuron clusters exchanging spikes; hardware is a 2D mesh
of tiles, each a single n x n crossbar with a per-tile capacity for clusters. The
stress seen by a tile's circuits is expressed as a piecewise-constant voltage
trace built from spike pulse intervals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DIODE_1D1R = "diode_1D1R"
TRANSISTOR_1T1R = "transistor_1T1R"

# (v_active, v_idle) per device kind.
_PROFILE_VOLTAGES = {
    DIODE_1D1R: (3.0, 1.8),
    TRANSISTOR_1T1R: (1.8, 1.2),
}

DEFAULT_SPIKE_PULSE_WIDTH = 100e-6


@dataclass(frozen=True)
class Cluster:
    """One pre-clustered group of neurons destined for a single crossbar."""

    id: str
    neuron_count: int
    synapse_count: int

    def __post_init__(self) -> None:
        if self.neuron_count < 0:
            raise ValueError(f"cluster {self.id!r}: neuron_count must be >= 0")
        if self.synapse_count < 0:
            raise ValueError(f"cluster {self.id!r}: synapse_count must be >= 0")


@dataclass(frozen=True)
class Edge:
    """Directed cluster-to-cluster connection weighted by spikes per window."""

    src: str
    dst: str
    spike_count: int

    def __post_init__(self) -> None:
        if self.spike_count < 0:
            raise ValueError(f"edge {self.src!r}->{self.dst!r}: spike_count must be >= 0")


@dataclass(frozen=True)
class ClusteredSnn:
    """Cluster graph plus the workload window it describes.

    Self-loop edges are allowed (recurrent topologies). Structural fit against a
    particular hardware config is checked by validate_snn, which reports
    violations as data rather than raising.
    """

    clusters: tuple[Cluster, ...]
    edges: tuple[Edge, ...]
    workload_window: float

    def __init__(self, clusters: Iterable[Cluster], edges: Iterable[Edge],
                 workload_window: float) -> None:
        object.__setattr__(self, "clusters", tuple(clusters))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "workload_window", float(workload_window))
        if not (math.isfinite(self.workload_window) and self.workload_window > 0.0):
            raise ValueError("workload_window must be finite and > 0")

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.clusters)}

    @cached_property
    def resolved_edges(self) -> tuple[tuple[int, int, int], ...]:
        """(src, dst, spike_count) cluster-index triples of the edges, in edge
        order. Dangling edges, with an endpoint that names no cluster, are
        ignored here and nowhere else (validate_snn reports them)."""
        index_of = self.index_of
        return tuple((index_of[e.src], index_of[e.dst], e.spike_count)
                     for e in self.edges if e.src in index_of and e.dst in index_of)

    @cached_property
    def spike_total(self) -> int:
        """The spike counts of the resolved edges, summed."""
        return sum(c for _, _, c in self.resolved_edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """resolved_edges as read-only arrays, built once: source and destination
        cluster indices, spike counts, and the spikes arriving at each cluster.
        The counts are int64 while spike_total fits it, and Python ints past it."""
        dtype = np.int64 if self.spike_total < 2 ** 63 else object
        edges = self.resolved_edges
        src = np.array([si for si, _, _ in edges], dtype=np.int64)
        dst = np.array([di for _, di, _ in edges], dtype=np.int64)
        counts = np.array([c for _, _, c in edges], dtype=dtype)
        inbound = np.zeros(len(self.clusters), dtype=dtype)
        np.add.at(inbound, dst, counts)
        for a in (src, dst, counts, inbound):
            a.flags.writeable = False
        return src, dst, counts, inbound

    @cached_property
    def predecessor_sets(self) -> tuple[frozenset[int], ...]:
        """Per-cluster sets of source-cluster indices."""
        preds: list[set[int]] = [set() for _ in self.clusters]
        for si, di, _ in self.resolved_edges:
            preds[di].add(si)
        return tuple(frozenset(p) for p in preds)


@dataclass(frozen=True)
class DeviceProfile:
    """Operating voltages of one NVM cell design.

    v_active holds while a spike propagates through the crossbar, v_idle is the
    standing bias. Unset voltages default per kind. spike_pulse_width is how long
    each spike holds the circuit at v_active; overlapping pulses merge.
    """

    kind: str
    v_active: float | None = None
    v_idle: float | None = None
    spike_pulse_width: float = DEFAULT_SPIKE_PULSE_WIDTH

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_VOLTAGES:
            raise ValueError(
                f"unknown device kind {self.kind!r}; expected one of {sorted(_PROFILE_VOLTAGES)}"
            )
        active, idle = _PROFILE_VOLTAGES[self.kind]
        if self.v_active is None:
            object.__setattr__(self, "v_active", active)
        if self.v_idle is None:
            object.__setattr__(self, "v_idle", idle)
        if not math.isfinite(self.v_active):
            raise ValueError("v_active must be finite")
        if not (self.v_active > self.v_idle > 0.0):
            raise ValueError("device profile requires v_active > v_idle > 0")
        if not (math.isfinite(self.spike_pulse_width) and self.spike_pulse_width > 0.0):
            raise ValueError("spike_pulse_width must be finite and > 0")


def _require_integer(name: str, value) -> None:
    """Refuse a value that is not an integer (a NumPy integer is one), or that
    is a bool, naming its field: int() would truncate 2.7 to 2 silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _most_square_mesh(num_tiles: int) -> tuple[int, int]:
    h = int(math.isqrt(num_tiles))
    while num_tiles % h:
        h -= 1
    return num_tiles // h, h


@dataclass(frozen=True)
class HardwareConfig:
    """Tile mesh, crossbar dimension, device profile, and operating point."""

    num_tiles: int
    crossbar_dim: int
    device_profile: DeviceProfile
    temperature: float = 300.0
    tile_capacity: int = 1
    mesh: tuple[int, int] | None = None  # (width, height), row-major tile indexing

    def __post_init__(self) -> None:
        for name in ("num_tiles", "crossbar_dim", "tile_capacity"):
            _require_integer(name, getattr(self, name))
        if self.num_tiles < 1:
            raise ValueError("num_tiles must be >= 1")
        if self.crossbar_dim < 1:
            raise ValueError("crossbar_dim must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be finite and > 0 K")
        if self.tile_capacity < 1:
            raise ValueError("tile_capacity must be >= 1")
        if self.mesh is None:
            object.__setattr__(self, "mesh", _most_square_mesh(self.num_tiles))
        else:
            for entry in self.mesh:
                _require_integer("mesh entry", entry)
            object.__setattr__(self, "mesh", (int(self.mesh[0]), int(self.mesh[1])))
        w, h = self.mesh
        if w < 1 or h < 1:
            raise ValueError(f"mesh {w}x{h} must have both dimensions >= 1")
        if w * h != self.num_tiles:
            raise ValueError(f"mesh {w}x{h} does not cover num_tiles={self.num_tiles}")

    @property
    def total_capacity(self) -> int:
        return self.num_tiles * self.tile_capacity


@dataclass(frozen=True)
class SpikeTrain:
    """Sorted spike times in seconds. Exact duplicates are merged."""

    times: np.ndarray

    def __init__(self, times: Iterable[float]) -> None:
        arr = np.sort(np.asarray(list(times), dtype=np.float64))
        if arr.size:
            if np.isnan(arr[-1]):  # NaN sorts last
                raise ValueError("spike times must not be NaN")
            if arr[0] < 0.0:
                raise ValueError("spike times must be >= 0")
            keep = np.ones(arr.size, dtype=bool)
            np.not_equal(arr[1:], arr[:-1], out=keep[1:])
            arr = arr[keep]
        arr.flags.writeable = False
        object.__setattr__(self, "times", arr)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class VoltageTrace:
    """Piecewise-constant voltage waveform: contiguous (voltage, duration) segments.

    Segments are stored as given; adjacent equal-voltage segments are legal so
    that joined segment lists keep sums term-aligned. Use merged() to coalesce.
    """

    voltages: np.ndarray
    durations: np.ndarray

    def __init__(self, segments: Iterable[tuple[float, float]]) -> None:
        segs = list(segments)
        v = np.asarray([s[0] for s in segs], dtype=np.float64)
        d = np.asarray([s[1] for s in segs], dtype=np.float64)
        if np.any(d <= 0.0):
            raise ValueError("segment durations must be > 0")
        if np.any(v <= 0.0):
            raise ValueError("segment voltages must be > 0")
        v.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "durations", d)

    @property
    def segments(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.voltages.tolist(), self.durations.tolist()))

    @property
    def span(self) -> float:
        return math.fsum(self.durations.tolist())

    def __len__(self) -> int:
        return int(self.voltages.size)

    def merged(self) -> "VoltageTrace":
        """Coalesce adjacent equal-voltage segments."""
        segs: list[list[float]] = []
        for v, d in zip(self.voltages.tolist(), self.durations.tolist()):
            if segs and segs[-1][0] == v:
                segs[-1][1] += d
            else:
                segs.append([v, d])
        return VoltageTrace((v, d) for v, d in segs)


@dataclass(frozen=True)
class Violation:
    """A structural problem found by validate_snn. Data, not an exception."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_snn(snn: ClusteredSnn, hw: HardwareConfig) -> list[Violation]:
    """Check that every cluster fits a crossbar and edges resolve.

    Returns an empty list iff the workload is structurally sound for hw. Never
    raises on malformed-but-parseable input. The fan-in check is the sound
    cluster-granularity pigeonhole: more than crossbar_dim synapses per output
    neuron on average forces some neuron's fan-in over crossbar_dim.
    """
    violations: list[Violation] = []
    seen: set[str] = set()
    for c in snn.clusters:
        if c.id in seen:
            violations.append(Violation("duplicate_cluster", f"cluster id {c.id!r} repeats"))
        seen.add(c.id)
        if c.neuron_count > hw.crossbar_dim:
            violations.append(Violation(
                "crossbar_overflow",
                f"cluster {c.id!r} has {c.neuron_count} neurons > crossbar_dim {hw.crossbar_dim}",
            ))
        if c.synapse_count > hw.crossbar_dim * c.neuron_count:
            violations.append(Violation(
                "fanin_overflow",
                f"cluster {c.id!r} has {c.synapse_count} synapses over {c.neuron_count} "
                f"neurons; some fan-in must exceed {hw.crossbar_dim}",
            ))
    for e in snn.edges:
        for endpoint in (e.src, e.dst):
            if endpoint not in snn.index_of:
                violations.append(Violation(
                    "dangling_edge", f"edge {e.src!r}->{e.dst!r} references missing {endpoint!r}"
                ))
    return violations


def build_voltage_trace(train: SpikeTrain, profile: DeviceProfile, window: float) -> VoltageTrace:
    """Expand a spike train into the circuit's voltage waveform over one window.

    Each spike holds v_active for spike_pulse_width (truncated at the window
    end); overlapping or touching pulses merge into one active segment; gaps are
    v_idle. Segment durations are boundary differences, so they sum to the
    window within an ulp per segment.
    """
    if window <= 0.0:
        raise ValueError("window must be > 0")
    times = train.times
    if times.size and (times[0] < 0.0 or times[-1] >= window):
        raise ValueError("spike times must lie within [0, window)")
    if times.size == 0:
        return VoltageTrace([(profile.v_idle, window)])

    pulse = profile.spike_pulse_width
    merged: list[tuple[float, float]] = []
    for t in times.tolist():
        lo, hi = t, min(t + pulse, window)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))

    segs: list[tuple[float, float]] = []
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor:
            segs.append((profile.v_idle, lo - cursor))
        segs.append((profile.v_active, hi - lo))
        cursor = hi
    if cursor < window:
        segs.append((profile.v_idle, window - cursor))
    return VoltageTrace(segs)


@dataclass(frozen=True)
class Mapping:
    """Dense cluster-to-tile assignment: assignment[i] is cluster i's tile."""

    assignment: tuple[int, ...]

    def __init__(self, assignment: Iterable[int]) -> None:
        object.__setattr__(self, "assignment", tuple(int(t) for t in assignment))

    def __len__(self) -> int:
        return len(self.assignment)


class MappingConstraintError(ValueError):
    """Raised when an operation receives a mapping that breaks the constraints."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def require_valid_mapping(mapping: Mapping, snn: ClusteredSnn, hw: HardwareConfig) -> None:
    problems = mapping_violations(mapping, snn, hw)
    if problems:
        raise MappingConstraintError(problems)


def first_fit_mapping(snn: ClusteredSnn, hw: HardwareConfig) -> Mapping:
    """Baseline assignment: clusters in order, each to the first tile with room."""
    if len(snn.clusters) > hw.total_capacity:
        raise MappingConstraintError(
            [f"{len(snn.clusters)} clusters exceed total capacity {hw.total_capacity}"]
        )
    loads = [0] * hw.num_tiles
    assignment = []
    for _ in snn.clusters:
        tile = next(t for t in range(hw.num_tiles) if loads[t] < hw.tile_capacity)
        loads[tile] += 1
        assignment.append(tile)
    return Mapping(assignment)


def mapping_violations(mapping: Mapping, snn: ClusteredSnn, hw: HardwareConfig) -> list[str]:
    """Constraint check: one tile per cluster, tile indices in range, capacity kept."""
    problems: list[str] = []
    if len(mapping.assignment) != len(snn.clusters):
        problems.append(
            f"assignment length {len(mapping.assignment)} != {len(snn.clusters)} clusters"
        )
        return problems
    loads: dict[int, int] = {}
    for i, tile in enumerate(mapping.assignment):
        if not 0 <= tile < hw.num_tiles:
            problems.append(f"cluster {snn.clusters[i].id!r} mapped to invalid tile {tile}")
            continue
        loads[tile] = loads.get(tile, 0) + 1
    for tile, load in sorted(loads.items()):
        if load > hw.tile_capacity:
            problems.append(f"tile {tile} holds {load} clusters > capacity {hw.tile_capacity}")
    return problems


@dataclass(frozen=True)
class WorkloadShape:
    """Topology descriptor for synthetic workloads."""

    num_clusters: int
    neurons_per_cluster: int = 8
    synapses_per_cluster: int = 32
    kind: str = "chain"
    edge_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if self.kind not in ("chain", "ring", "random"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")


@dataclass(frozen=True)
class Workload:
    """A cluster graph together with its per-cluster spike trains."""

    snn: ClusteredSnn
    trains: dict[str, SpikeTrain]

    def total_spikes(self) -> int:
        return sum(len(t) for t in self.trains.values())


def generate_poisson_workload(
    snn_shape: WorkloadShape,
    rate: float | Sequence[float],
    window: float,
    seed: int,
) -> Workload:
    """Synthesize a seeded workload: Poisson spike trains over a fixed topology.

    Deterministic for a fixed seed: topology draws happen before spike draws,
    clusters are visited in index order. Edge spike counts equal the emitted
    spike count of the source cluster (spikes broadcast along declared edges).
    rate may be a scalar or one value per cluster.
    """
    if not (math.isfinite(window) and window > 0.0):
        raise ValueError("window must be finite and > 0")
    k = snn_shape.num_clusters
    if np.ndim(rate) == 0:
        rates = [float(rate)] * k
    else:
        rates = [float(r) for r in rate]
        if len(rates) != k:
            raise ValueError(f"got {len(rates)} rates for {k} clusters")
    if any(r < 0.0 for r in rates):
        raise ValueError("rate must be >= 0")

    rng = np.random.default_rng(seed)
    ids = [f"c{i}" for i in range(k)]

    pairs: list[tuple[int, int]] = [(i, i + 1) for i in range(k - 1)]
    if snn_shape.kind == "ring" and k > 1:
        pairs.append((k - 1, 0))
    elif snn_shape.kind == "random":
        # One draw per (i, j) off the diagonal and the chain, in (i, j) order:
        # the stream of one scalar draw each, in one call.
        src, dst = np.nonzero(~np.eye(k, dtype=bool))
        off_chain = dst != src + 1
        src, dst = src[off_chain], dst[off_chain]
        drawn = rng.random(len(src)) < snn_shape.edge_prob
        pairs += zip(src[drawn].tolist(), dst[drawn].tolist())

    trains: dict[str, SpikeTrain] = {}
    for i, cid in enumerate(ids):
        n = int(rng.poisson(rates[i] * window))
        times = np.sort(rng.uniform(0.0, window, n)) if n else np.empty(0)
        trains[cid] = SpikeTrain(times)

    clusters = [
        Cluster(cid, snn_shape.neurons_per_cluster, snn_shape.synapses_per_cluster)
        for cid in ids
    ]
    edges = [Edge(ids[i], ids[j], len(trains[ids[i]])) for i, j in pairs]
    snn = ClusteredSnn(clusters=clusters, edges=edges, workload_window=window)
    return Workload(snn=snn, trains=trains)
