"""Constrained binary particle swarm search over cluster-to-tile mappings.

A mapping is a binary matrix (cluster x tile) constrained to one tile per
cluster and at most tile_capacity clusters per tile. Particles carry real
positions and velocities of dimension |C|*|T|; each step moves toward personal
and global bests, stochastically binarizes through a sigmoid of the velocity,
and repairs the resulting matrix back into the feasible set. The scalar being
minimized is lambda = tau * aging, taken as 0 when tau is 0 (or tau alone
when the context selects the time-only objective). Every feasible evaluation
lands in an archive, the only store of evaluations: the (tau, aging) Pareto
front and the best mapping's evaluation are both read from it afterwards.

A step works on the whole swarm at once: one sigmoid of the (n_p, C, T)
velocity, which feeds both the bit draw (the one binarize also makes) and
repair's preference, and one repair_rows over all particles. One update then
evaluates the repaired rows with one EvalContext.evaluate_rows, the batch
evaluator the oracle also calls, which returns float64 columns of tau
(perf.execution_times), aging (worst_tile_agings, the one worst-tile aging
path) and lambda; it archives them and updates the personal bests in one
comparison. Initialization is that same update applied to the random
starting corners as iteration 0, and evaluate is the validated one-mapping
case. Python loops over particles only for the overloaded rows repair has to
move and for the archive; the improved personal-best corners are written in
one scatter. The front is one sweep over the archive sorted by (tau, aging).

All randomness flows from one seeded generator, and best-updates reduce in
particle-index order, so a run is a pure function of (instance, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .aging import AgingParams, combine_aging, hosted_set_mechanism_agings
from .model import ClusteredSnn, HardwareConfig, Mapping, Workload
from .perf import PerfParams, execution_time, execution_times


class InfeasibleError(RuntimeError):
    """The instance admits no feasible mapping (more clusters than capacity)."""


class Evaluation(NamedTuple):
    tau: float  # each field a float64 column when evaluate_rows returns it
    aging: float
    lam: float


def lambdas(tau: np.ndarray, aging: np.ndarray) -> np.ndarray:
    """lambda = tau * aging elementwise, and 0.0 wherever tau is 0: a mapping
    that takes no time scores 0 even when its aging is inf (0 * inf is NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(tau == 0.0, 0.0, tau * aging)


class EvalContext:
    """Shared evaluation state: the instance, its parameters, and the per-set
    tile aging cache.

    Tile aging (the combined aging of the tile's mechanisms) is cached per
    hosted cluster set, since a tile's stress trace depends only on who sits
    on it (plus their predecessors), not on which tile it is. Evaluations
    themselves are not stored: the swarm's archive is the only store.

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

    def worst_tile_agings(self, rows: np.ndarray) -> np.ndarray:
        """Aging of every row of an (n, C) array of tile indices (not validated
        here): the largest tile_aging over its tiles, an empty tile counting as
        0.0. Each (tile, row) cell's hosted set is a C-bit mask in ceil(C / 64)
        uint64 words, so every cluster count takes this one path; each distinct
        set is looked up once."""
        rows = np.asarray(rows, dtype=np.int64)
        n, num_clusters = rows.shape
        cluster = np.arange(num_clusters)
        # Little-endian words, so that the bytes of word w hold clusters 64w on.
        masks = np.zeros((self.hw.num_tiles, n, -(-num_clusters // 64)), dtype="<u8")
        # A cell's bits are disjoint, so adding them is the same as OR-ing them.
        np.add.at(masks, (rows, np.arange(n)[:, None], cluster // 64),
                  np.uint64(1) << (cluster % 64).astype(np.uint64))
        masks = masks.reshape(-1, masks.shape[2])
        # Rank the cells one word at a time; a rank stays below the cell count,
        # so the combined key cannot overflow.
        distinct, rank = np.unique(masks[:, 0], return_inverse=True)
        for column in masks.T[1:]:
            values, inverse = np.unique(column, return_inverse=True)
            distinct, rank = np.unique(rank * values.size + inverse, return_inverse=True)
        cell = np.empty(distinct.size, dtype=np.int64)
        cell[rank] = np.arange(rank.size)  # any one cell holding each distinct set
        bits = np.unpackbits(masks[cell].view(np.uint8), axis=1, count=num_clusters,
                             bitorder="little")
        set_index, member = np.divmod(np.flatnonzero(bits), num_clusters)
        bounds = np.searchsorted(set_index, np.arange(distinct.size + 1)).tolist()
        member = member.tolist()
        agings = np.array([self.tile_aging(frozenset(member[lo:hi])) if hi > lo else 0.0
                           for lo, hi in zip(bounds[:-1], bounds[1:])])
        return agings[rank].reshape(self.hw.num_tiles, n).max(axis=0)

    def evaluate(self, mapping: Mapping) -> Evaluation:
        """Evaluation of one mapping, validated against the instance first;
        the n = 1 case of evaluate_rows."""
        tau = execution_time(self.workload.snn, mapping, self.hw, self.perf_params)
        aging = self.worst_tile_agings(np.asarray([mapping.assignment]))
        return Evaluation(tau, aging.item(), lambdas(tau, aging).item())

    def evaluate_rows(self, rows: np.ndarray) -> Evaluation:
        """evaluate for every row of an (n, C) array of feasible assignments,
        such as repair_rows returns, as float64 columns of length n; the rows
        are not validated again. Tau comes from one execution_times call and
        aging from one worst_tile_agings call."""
        tau = execution_times(rows, self.workload.snn, self.hw, self.perf_params)
        aging = self.worst_tile_agings(rows)
        return Evaluation(tau, aging, lambdas(tau, aging))


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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
    g_best_pos: np.ndarray  # (D,) binary corner of the global best
    g_best_fit: float
    iteration: int
    rng: np.random.Generator
    archive: dict[tuple[int, ...], ArchiveEntry] = field(default_factory=dict)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """The logistic function without overflow: exp only ever sees -|v|."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _draw_bits(vhat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """bit_d = 0 with probability vhat_d: one uniform draw per component, in
    array order."""
    return np.where(rng.random(vhat.shape) < vhat, 0, 1)


def binarize(position: np.ndarray, velocity: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Stochastic binarization: bit_d = 0 with probability sigmoid(velocity_d).

    The stated rule reads only the velocity; the sampled bit replaces the real
    position outright. One uniform draw per component, in array order.
    step_swarm makes the same draw from the sigmoid it also hands to repair,
    so it does not call this function.
    """
    return _draw_bits(_sigmoid(np.asarray(velocity, dtype=np.float64)), rng)


def _ring_walk(tile: int, mesh: tuple[int, int]):
    """Every other tile of the mesh in ascending (manhattan hops, index) order.

    Ring d holds the tiles d hops away; within a ring, ascending index is
    ascending row, then ascending column. Nothing of size T x T is built.
    """
    width, height = mesh
    y0, x0 = divmod(tile, width)
    for d in range(1, width + height - 1):
        for y in range(max(0, y0 - d), min(height - 1, y0 + d) + 1):
            dx = d - abs(y - y0)
            if x0 - dx >= 0:
                yield y * width + x0 - dx
            if dx and x0 + dx < width:
                yield y * width + x0 + dx


def repair_rows(bits: np.ndarray, pref: np.ndarray, hw: HardwareConfig) -> np.ndarray:
    """Project a batch of (n, C, T) cluster-by-tile matrices onto feasible
    assignments, returned as an (n, C) int64 array.

    A row with exactly one nonzero entry keeps its tile; any other row takes
    the column of highest pref (ties to the lowest tile). Overloaded tiles,
    visited in ascending index, evict their highest-index clusters first, each
    to the first tile with room in (manhattan hops, index) order, found by a
    ring walk out from the overloaded tile. A tile that is not overloaded at
    the start never becomes so, and one walk serves all of a tile's evictions,
    because the tiles it passes stay full. Within one call, the ring order of
    each overloaded tile is kept as a list that every particle overflowing
    that tile reads and extends from the same walk, so it grows only as far
    as some particle went; nothing outlives the call. Only particles with an
    overloaded tile enter that Python loop. The caller guarantees
    C <= total capacity.
    """
    nonzero = np.asarray(bits) != 0
    rows = np.where(nonzero.sum(axis=2) == 1, nonzero.argmax(axis=2),
                    np.asarray(pref).argmax(axis=2)).astype(np.int64)
    n, num_tiles = rows.shape[0], hw.num_tiles
    cap = hw.tile_capacity
    offsets = rows + num_tiles * np.arange(n)[:, None]
    loads = np.bincount(offsets.ravel(), minlength=n * num_tiles).reshape(n, num_tiles)
    rings: dict[int, tuple[list[int], Iterator[int]]] = {}  # tile -> (order so far, walk)
    for i in np.flatnonzero((loads > cap).any(axis=1)).tolist():
        row, load = rows[i].tolist(), loads[i].tolist()
        leaving: dict[int, list[int]] = {}  # overloaded tile -> clusters, highest first
        for c in range(len(row) - 1, -1, -1):
            if load[row[c]] > cap:
                leaving.setdefault(row[c], []).append(c)
        for tile in sorted(leaving):
            if tile not in rings:
                rings[tile] = ([], _ring_walk(tile, hw.mesh))
            order, walk = rings[tile]
            k, dest = 0, tile
            for c in leaving[tile][:load[tile] - cap]:
                while load[dest] >= cap:
                    if k == len(order):
                        order.append(next(walk))
                    dest = order[k]
                    k += 1
                row[c] = dest
                load[dest] += 1
        rows[i] = row
    return rows


def repair(
    binary: np.ndarray,
    hw: HardwareConfig,
    rng: np.random.Generator,
    pref: np.ndarray | None = None,
) -> Mapping:
    """Project an arbitrary binary matrix onto the feasible mapping set.

    The one-matrix case of repair_rows: rows without exactly one 1 get their 1
    at the column of highest pref (the pre-binarization sigmoid velocities;
    ties to the lowest tile; all zeros when pref is None). Overloaded tiles,
    visited in ascending index, evict their most recently assigned clusters to
    the nearest tile with free capacity (manhattan distance, ties to the
    lowest index). Both rules are deterministic; rng is accepted for interface
    symmetry with binarize but never consumed.
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
    return Mapping(repair_rows(b[None], prefm[None], hw)[0].tolist())


def _corners(rows: np.ndarray, num_tiles: int) -> np.ndarray:
    """The binary corner of every row of an (n, C) assignment array: its
    one-hot (C, T) matrix, flattened."""
    n, num_clusters = rows.shape
    out = np.zeros((n, num_clusters * num_tiles))
    out[np.arange(n)[:, None], np.arange(num_clusters) * num_tiles + rows] = 1.0
    return out


def _update(state: SwarmState, rows: np.ndarray, ctx: EvalContext) -> None:
    """Evaluate one iteration's repaired rows in one batch, archive each new
    assignment in particle order, update personal bests on strict improvement
    (the improved corners written in one scatter), then the global best: ties
    keep the incumbent, and equal minima resolve to the lowest particle index."""
    ev = ctx.evaluate_rows(rows)
    for assignment, *values in zip(map(tuple, rows.tolist()), *(c.tolist() for c in ev)):
        if assignment not in state.archive:  # values: tau, aging, lam
            state.archive[assignment] = ArchiveEntry(assignment, *values, state.iteration)
    scalar = ev.lam if ctx.objective == "lambda" else ev.tau
    improved = scalar < state.p_best_fit
    state.p_best_fit[improved] = scalar[improved]
    state.p_best_pos[improved] = _corners(rows[improved], ctx.hw.num_tiles)
    best = int(np.argmin(state.p_best_fit))
    if state.p_best_fit[best] < state.g_best_fit:
        state.g_best_fit = float(state.p_best_fit[best])
        state.g_best_pos = state.p_best_pos[best].copy()


def initialize_swarm(cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """Seeded start: every particle sits at a repaired random binary corner
    with zero velocity. The draws stay per particle (bits, then pref); repair
    runs once over the stacked arrays, and the update step evaluates and
    archives them as iteration 0, from personal bests of inf and particle 0's
    corner as the global best (which an all-inf swarm keeps)."""
    snn = ctx.workload.snn
    num_clusters = len(snn.clusters)
    num_tiles = ctx.hw.num_tiles
    if num_clusters > ctx.hw.total_capacity:
        raise InfeasibleError(
            f"{num_clusters} clusters exceed total capacity {ctx.hw.total_capacity}"
        )
    n_p, _ = cfg.resolved(num_clusters)
    rng = np.random.default_rng(cfg.seed)

    bits = np.empty((n_p, num_clusters, num_tiles), dtype=np.int64)
    prefs = np.empty((n_p, num_clusters, num_tiles))
    for i in range(n_p):
        bits[i] = rng.integers(0, 2, (num_clusters, num_tiles))
        prefs[i] = rng.random((num_clusters, num_tiles))
    rows = repair_rows(bits, prefs, ctx.hw)
    positions = _corners(rows, num_tiles)
    state = SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        p_best_pos=positions.copy(),
        p_best_fit=np.full(n_p, math.inf),
        g_best_pos=positions[0].copy(),
        g_best_fit=math.inf,
        iteration=0,
        rng=rng,
    )
    _update(state, rows, ctx)
    return state


def step_swarm(state: SwarmState, cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """One synchronous swarm iteration, mutating state in place.

    Velocity gains fresh uniform pulls toward the personal and global best
    corners and is clamped to +-v_clamp; the real position integrates it.
    The sigmoid of the whole velocity is taken once: the swarm is binarized
    from it (one draw, the same stream as one draw per particle in turn) and
    repaired with it as the preference. The update that also ends
    initialize_swarm then evaluates, archives and updates the bests.
    """
    n_p, dim = state.positions.shape

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

    vhat = _sigmoid(vel.reshape(n_p, -1, ctx.hw.num_tiles))
    _update(state, repair_rows(_draw_bits(vhat, state.rng), vhat, ctx.hw), ctx)
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
    """Exact non-dominated subset of the archive under (tau, aging) minimization,
    sorted by (tau, aging, assignment).

    NaN objectives are refused: they have no order, so neither the sort nor the
    sweep below could place them.
    """
    entries = list(archive)
    if not entries:
        raise ValueError("archive is empty")
    if any(math.isnan(e.tau) or math.isnan(e.aging) for e in entries):
        raise ValueError("archive holds a NaN objective")
    entries.sort(key=lambda e: (e.tau, e.aging, e.assignment))
    # One sweep (Kung, Luccio & Preparata 1975): an entry is on the front when
    # it ages strictly less than the last point kept, or ties that point's
    # (tau, aging). The fastest group is never dominated, even at inf aging.
    points = [entries[0]]
    for e in entries[1:]:
        last = points[-1]
        if e.aging < last.aging or (e.tau == last.tau and e.aging == last.aging):
            points.append(e)
    return ParetoFront(points=tuple(FrontPoint(Mapping(e.assignment), e.tau, e.aging)
                                    for e in points))


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
    # g_best is always an evaluated corner, so the archive holds its values.
    corner = state.g_best_pos.reshape(num_clusters, -1)
    best = state.archive[tuple(corner.argmax(axis=1).tolist())]
    return OptimizeResult(
        mapping=Mapping(best.assignment),
        evaluation=Evaluation(best.tau, best.aging, best.lam),
        front=front,
        archive=tuple(state.archive.values()),
        iterations=iters,
        total_evaluations=n_p * (iters + 1),
        unique_mappings=len(state.archive),
    )
