"""Constrained binary particle swarm search over cluster-to-tile mappings.

A mapping is a binary matrix (cluster x tile) constrained to one tile per
cluster and at most tile_capacity clusters per tile. Particles carry real
positions and velocities of dimension |C|*|T|; each step moves toward personal
and global bests, stochastically binarizes through a sigmoid of the velocity,
and repairs the resulting matrix back into the feasible set. The scalar being
minimized is the product fitness lambda = tau * aging (or tau alone when the
context selects the time-only objective). Every feasible evaluation lands in
an archive from which the (tau, aging) Pareto front is extracted afterwards.

All randomness flows from one seeded generator, and best-updates reduce in
particle-index order, so a run is a pure function of (instance, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .aging import AgingParams, combine_aging, hosted_set_mechanism_agings
from .model import ClusteredSnn, HardwareConfig, Mapping, Workload
from .perf import PerfParams, execution_time


class InfeasibleError(RuntimeError):
    """The instance admits no feasible mapping (more clusters than capacity)."""


class Evaluation(NamedTuple):
    tau: float
    aging: float
    lam: float


class EvalContext:
    """Shared evaluation state: instance, parameters, and memo caches.

    Fitness is memoized per assignment. Tile aging (the combined aging of the
    tile's mechanisms) is memoized per hosted cluster set, since a tile's
    stress trace depends only on who sits on it (plus their predecessors), not
    on which tile it is.

    objective picks the scalar the swarm minimizes: "lambda" (tau * aging) or
    "tau" (time only). The full Evaluation is always available either way.
    """

    def __init__(
        self,
        workload: Workload,
        hw: HardwareConfig,
        aging_params: AgingParams,
        perf_params: PerfParams,
        objective: str = "lambda",
    ) -> None:
        if objective not in ("lambda", "tau"):
            raise ValueError(f"objective must be 'lambda' or 'tau', got {objective!r}")
        self.workload = workload
        self.hw = hw
        self.aging_params = aging_params
        self.perf_params = perf_params
        self.objective = objective
        self._fitness_cache: dict[tuple[int, ...], Evaluation] = {}
        self._tile_cache: dict[frozenset[int], float] = {}

    def tile_aging(self, members: frozenset[int]) -> float:
        """Combined aging of a tile hosting exactly `members`, computed once
        per set."""
        a = self._tile_cache.get(members)
        if a is None:
            mech = hosted_set_mechanism_agings(
                members, self.workload, self.hw, self.aging_params
            )
            a = combine_aging(mech[0], mech[1], mech[2], self.aging_params.tddb.beta)
            self._tile_cache[members] = a
        return a

    def evaluate(self, mapping: Mapping) -> Evaluation:
        key = mapping.assignment
        hit = self._fitness_cache.get(key)
        if hit is not None:
            return hit
        tau = execution_time(self.workload.snn, mapping, self.hw, self.perf_params)
        hosted: dict[int, set[int]] = {}
        for ci, tile in enumerate(key):
            hosted.setdefault(tile, set()).add(ci)
        aging = 0.0
        for members in hosted.values():
            a = self.tile_aging(frozenset(members))
            if a > aging:
                aging = a
        ev = Evaluation(tau=tau, aging=aging, lam=tau * aging)
        self._fitness_cache[key] = ev
        return ev

    def objective_value(self, ev: Evaluation) -> float:
        return ev.lam if self.objective == "lambda" else ev.tau


def fitness(mapping: Mapping, ctx: EvalContext) -> Evaluation:
    """Joint fitness of a mapping: lambda = tau * aging, memoized in ctx."""
    return ctx.evaluate(mapping)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters. n_particles / max_iterations of None resolve to
    max(20, 2*|C|) and 100*|C| at optimize time."""

    n_particles: int | None = None
    max_iterations: int | None = None
    phi1: float = 2.0
    phi2: float = 2.0
    seed: int = 0
    v_clamp: float = 4.0

    def __post_init__(self) -> None:
        if self.n_particles is not None and self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)
                and self.phi1 >= 0.0 and self.phi2 >= 0.0):
            raise ValueError("phi1 and phi2 must be finite and >= 0")
        if not (math.isfinite(self.v_clamp) and self.v_clamp > 0.0):
            raise ValueError("v_clamp must be finite and > 0")

    def resolved(self, num_clusters: int) -> tuple[int, int]:
        n_p = self.n_particles if self.n_particles is not None else max(20, 2 * num_clusters)
        iters = self.max_iterations if self.max_iterations is not None else 100 * num_clusters
        return n_p, iters


@dataclass(frozen=True)
class ArchiveEntry:
    """One evaluated feasible mapping; iteration is where it first appeared."""

    assignment: tuple[int, ...]
    tau: float
    aging: float
    lam: float
    iteration: int


@dataclass
class SwarmState:
    """Mutable swarm snapshot; single writer, stepped in place."""

    positions: np.ndarray  # (n_p, D) real
    velocities: np.ndarray  # (n_p, D) real
    p_best_pos: np.ndarray  # (n_p, D) binary corners of repaired bests
    p_best_fit: np.ndarray  # (n_p,)
    p_best_map: list[Mapping]
    p_best_eval: list[Evaluation]
    g_best_pos: np.ndarray  # (D,)
    g_best_fit: float
    g_best_map: Mapping
    g_best_eval: Evaluation
    iteration: int
    rng: np.random.Generator
    archive: dict[tuple[int, ...], ArchiveEntry] = field(default_factory=dict)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def binarize(position: np.ndarray, velocity: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Stochastic binarization: bit_d = 0 with probability sigmoid(velocity_d).

    The stated rule reads only the velocity; the sampled bit replaces the real
    position outright. One uniform draw per component, in array order.
    """
    v = np.asarray(velocity, dtype=np.float64)
    vhat = _sigmoid(v)
    return np.where(rng.random(v.shape) < vhat, 0, 1)


def repair(
    binary: np.ndarray,
    hw: HardwareConfig,
    rng: np.random.Generator,
    pref: np.ndarray | None = None,
) -> Mapping:
    """Project an arbitrary binary matrix onto the feasible mapping set.

    Rows without exactly one 1 get their 1 at the column of highest pref (the
    pre-binarization sigmoid velocities; ties to the lowest tile). Overloaded
    tiles, visited in ascending index, evict their most recently assigned
    clusters to the nearest tile with free capacity (manhattan distance, ties
    to the lowest index). Both rules are deterministic; rng is accepted for
    interface symmetry with binarize but never consumed.
    """
    b = np.asarray(binary)
    if b.ndim != 2 or b.shape[1] != hw.num_tiles:
        raise ValueError(
            f"binary matrix must be (num_clusters, {hw.num_tiles}), got {b.shape}"
        )
    num_clusters, num_tiles = b.shape
    if num_clusters > hw.total_capacity:
        raise InfeasibleError(
            f"{num_clusters} clusters exceed total capacity {hw.total_capacity}"
        )
    if pref is None:
        prefm = np.zeros((num_clusters, num_tiles))
    else:
        prefm = np.asarray(pref, dtype=np.float64)
        if prefm.shape != (num_clusters, num_tiles):
            raise ValueError(f"pref shape {prefm.shape} does not match {b.shape}")

    assignment = np.empty(num_clusters, dtype=np.int64)
    for i in range(num_clusters):
        ones = np.flatnonzero(b[i])
        if ones.size == 1:
            assignment[i] = ones[0]
        else:
            assignment[i] = int(np.argmax(prefm[i]))

    loads = np.bincount(assignment, minlength=num_tiles)
    for tile in range(num_tiles):
        while loads[tile] > hw.tile_capacity:
            mover = int(np.flatnonzero(assignment == tile)[-1])
            dest = min(
                (t for t in range(num_tiles) if loads[t] < hw.tile_capacity),
                key=lambda t: (hw.manhattan_hops(tile, t), t),
            )
            assignment[mover] = dest
            loads[tile] -= 1
            loads[dest] += 1
    return Mapping(assignment.tolist())


def _corner(assignment: tuple[int, ...], num_tiles: int) -> np.ndarray:
    m = np.zeros((len(assignment), num_tiles))
    m[np.arange(len(assignment)), list(assignment)] = 1.0
    return m.reshape(-1)


def _archive_insert(
    archive: dict[tuple[int, ...], ArchiveEntry],
    mapping: Mapping,
    ev: Evaluation,
    iteration: int,
) -> None:
    if mapping.assignment not in archive:
        archive[mapping.assignment] = ArchiveEntry(
            assignment=mapping.assignment,
            tau=ev.tau,
            aging=ev.aging,
            lam=ev.lam,
            iteration=iteration,
        )


def initialize_swarm(cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """Seeded start: every particle sits at a repaired random binary corner
    with zero velocity, already evaluated and archived as iteration 0."""
    snn = ctx.workload.snn
    num_clusters = len(snn.clusters)
    num_tiles = ctx.hw.num_tiles
    if num_clusters > ctx.hw.total_capacity:
        raise InfeasibleError(
            f"{num_clusters} clusters exceed total capacity {ctx.hw.total_capacity}"
        )
    n_p, _ = cfg.resolved(num_clusters)
    dim = num_clusters * num_tiles
    rng = np.random.default_rng(cfg.seed)

    positions = np.empty((n_p, dim))
    p_best_fit = np.empty(n_p)
    p_best_map: list[Mapping] = []
    p_best_eval: list[Evaluation] = []
    archive: dict[tuple[int, ...], ArchiveEntry] = {}
    for i in range(n_p):
        bits = rng.integers(0, 2, (num_clusters, num_tiles))
        pref = rng.random((num_clusters, num_tiles))
        m = repair(bits, ctx.hw, rng, pref=pref)
        ev = ctx.evaluate(m)
        positions[i] = _corner(m.assignment, num_tiles)
        p_best_fit[i] = ctx.objective_value(ev)
        p_best_map.append(m)
        p_best_eval.append(ev)
        _archive_insert(archive, m, ev, 0)

    best = int(np.argmin(p_best_fit))
    return SwarmState(
        positions=positions,
        velocities=np.zeros((n_p, dim)),
        p_best_pos=positions.copy(),
        p_best_fit=p_best_fit,
        p_best_map=p_best_map,
        p_best_eval=p_best_eval,
        g_best_pos=positions[best].copy(),
        g_best_fit=float(p_best_fit[best]),
        g_best_map=p_best_map[best],
        g_best_eval=p_best_eval[best],
        iteration=0,
        rng=rng,
        archive=archive,
    )


def step_swarm(state: SwarmState, cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """One synchronous swarm iteration, mutating state in place.

    Velocity gains fresh uniform pulls toward the personal and global best
    corners and is clamped to +-v_clamp; the real position integrates it.
    Each particle is then binarized, repaired, evaluated, and archived;
    personal bests update on strict improvement, the global best last (ties
    keep the incumbent, equal minima resolve to the lowest particle index).
    """
    n_p, dim = state.positions.shape
    num_tiles = ctx.hw.num_tiles
    num_clusters = dim // num_tiles

    r1 = state.rng.random((n_p, dim))
    r2 = state.rng.random((n_p, dim))
    vel = (
        state.velocities
        + cfg.phi1 * r1 * (state.p_best_pos - state.positions)
        + cfg.phi2 * r2 * (state.g_best_pos - state.positions)
    )
    np.clip(vel, -cfg.v_clamp, cfg.v_clamp, out=vel)
    state.velocities = vel
    state.positions = state.positions + vel
    state.iteration += 1

    for i in range(n_p):
        vmat = vel[i].reshape(num_clusters, num_tiles)
        bits = binarize(
            state.positions[i].reshape(num_clusters, num_tiles), vmat, state.rng
        )
        m = repair(bits, ctx.hw, state.rng, pref=_sigmoid(vmat))
        ev = ctx.evaluate(m)
        _archive_insert(state.archive, m, ev, state.iteration)
        scalar = ctx.objective_value(ev)
        if scalar < state.p_best_fit[i]:
            state.p_best_fit[i] = scalar
            state.p_best_pos[i] = _corner(m.assignment, num_tiles)
            state.p_best_map[i] = m
            state.p_best_eval[i] = ev

    best = int(np.argmin(state.p_best_fit))
    if state.p_best_fit[best] < state.g_best_fit:
        state.g_best_fit = float(state.p_best_fit[best])
        state.g_best_pos = state.p_best_pos[best].copy()
        state.g_best_map = state.p_best_map[best]
        state.g_best_eval = state.p_best_eval[best]
    return state


@dataclass(frozen=True)
class FrontPoint:
    mapping: Mapping
    tau: float
    aging: float


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated (tau, aging) points sorted by tau. Points with equal
    objectives are all kept (neither dominates)."""

    points: tuple[FrontPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        prev: FrontPoint | None = None
        for p in self.points:
            if prev is not None:
                if p.tau < prev.tau:
                    raise ValueError("front must be sorted by tau")
                if p.tau == prev.tau and p.aging != prev.aging:
                    raise ValueError("front contains a dominated point")
                if p.tau > prev.tau and p.aging >= prev.aging:
                    raise ValueError("front contains a dominated point")
            prev = p


def extract_pareto(archive: Iterable[ArchiveEntry]) -> ParetoFront:
    """Exact non-dominated subset of the archive under (tau, aging) minimization.

    NaN objectives are refused: they have no order, so neither the sort nor the
    sweep below could place them.
    """
    entries = list(archive)
    if not entries:
        raise ValueError("archive is empty")
    if any(math.isnan(e.tau) or math.isnan(e.aging) for e in entries):
        raise ValueError("archive holds a NaN objective")
    entries.sort(key=lambda e: (e.tau, e.aging, e.assignment))
    points: list[FrontPoint] = []
    best_aging = math.inf
    i, n = 0, len(entries)
    while i < n:
        j = i
        while j < n and entries[j].tau == entries[i].tau:
            j += 1
        group_min = entries[i].aging  # group is aging-sorted; first is the min
        if group_min < best_aging:
            for k in range(i, j):
                if entries[k].aging != group_min:
                    break
                points.append(FrontPoint(
                    mapping=Mapping(entries[k].assignment),
                    tau=entries[k].tau,
                    aging=entries[k].aging,
                ))
            best_aging = group_min
        i = j
    return ParetoFront(points=tuple(points))


def select_final(front: ParetoFront, epsilon: float = 0.05) -> Mapping:
    """Pick the deployment mapping off the front: minimum aging among points
    whose tau is within (1+epsilon) of the fastest; ties prefer lower tau,
    then the lexicographically smallest assignment."""
    if not front.points:
        raise ValueError("front is empty")
    if math.isnan(epsilon) or epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    if math.isinf(epsilon):
        candidates = list(front.points)
    else:
        limit = front.points[0].tau * (1.0 + epsilon)  # points sorted by tau
        candidates = [p for p in front.points if p.tau <= limit]
    chosen = min(candidates, key=lambda p: (p.aging, p.tau, p.mapping.assignment))
    return chosen.mapping


@dataclass(frozen=True)
class OptimizeResult:
    """Best mapping found, its evaluation, the archive front, and run stats."""

    mapping: Mapping
    evaluation: Evaluation
    front: ParetoFront
    archive: tuple[ArchiveEntry, ...]
    iterations: int
    total_evaluations: int
    unique_mappings: int


def optimize(
    snn: ClusteredSnn, hw: HardwareConfig, cfg: PsoConfig, ctx: EvalContext
) -> OptimizeResult:
    """Full swarm run: seeded init, max_iterations steps, front extraction."""
    if ctx.workload.snn != snn or ctx.hw != hw:
        raise ValueError("ctx was built for a different instance")
    num_clusters = len(snn.clusters)
    n_p, iters = cfg.resolved(num_clusters)
    resolved = replace(cfg, n_particles=n_p, max_iterations=iters)
    state = initialize_swarm(resolved, ctx)
    for _ in range(iters):
        step_swarm(state, resolved, ctx)
    front = extract_pareto(state.archive.values())
    return OptimizeResult(
        mapping=state.g_best_map,
        evaluation=state.g_best_eval,
        front=front,
        archive=tuple(state.archive.values()),
        iterations=iters,
        total_evaluations=n_p * (iters + 1),
        unique_mappings=len(state.archive),
    )
