"""Constrained binary particle swarm search over cluster-to-tile mappings.

A mapping is a binary matrix (cluster x tile) constrained to one tile per
cluster and at most tile_capacity clusters per tile. Particles carry real
(|C|, |T|) positions and velocities; each step moves toward the one-hot
corners of the personal bests (each an assignment row) and of the global best
(the index of the particle holding it), stochastically binarizes through a
sigmoid of the velocity, and repairs the result into the feasible set. The
scalar being minimized is lambda = tau * aging, taken as 0 when tau is 0 (or
tau alone when the context selects the time-only objective). Every feasible
evaluation is kept, the only store of evaluations: each iteration's repaired
rows, in the smallest unsigned type that holds a tile index, with their
float64 tau, aging and lambda columns. optimize builds the archive from them
once, at the end: the first occurrence of each distinct row, in evaluation
order, as read-only columns. The (tau, aging) Pareto front and the best
mapping's evaluation are both read from it.

A step works on the whole swarm at once and in place: the velocity and
position arrays are updated where they are, the pulls toward the bests'
corners are formed without building the corners, and one sigmoid of the
(n_p, C, T) velocity feeds both the bit draw (the one binarize also makes, as a
bool array here) and repair's preference, and one repair_rows over all
particles, which lists the batch's evictions in one NumPy pass. One update then
evaluates the repaired rows with one EvalContext.evaluate_rows, the batch
evaluator the oracle also calls, which returns float64 columns of tau
(perf.execution_times), aging (worst_tile_agings) and lambda, block by block
(the only place a batch is split); it archives them and updates the personal
bests in one comparison. A mapping's aging is its worst tile's (a series
system), so worst_tile_agings reads each tile's aging, or an upper bound on
it, from a cache keyed by its hosted set's bitmask, and sends a set to the
kernel only when its bound can still reach its row's worst.
Initialization is that same update applied to the random starting corners
as iteration 0, and evaluate is the validated one-mapping case. Python loops
only over the evictions repair has to make and the front's few points, and
over hosted sets only for those not yet cached and those the kernel computes;
the improved personal-best rows are written in one masked assignment. The
front is one sweep over the archive's columns sorted by (tau, aging).

All randomness flows from one seeded generator, and best-updates reduce in
particle-index order, so a run is a pure function of (instance, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .aging import (AgingParams, combine_aging, hosted_set_aging_bounds,
                    hosted_set_mechanism_agings)
from .model import ClusteredSnn, HardwareConfig, Mapping, Workload
from .perf import PerfParams, execution_time, execution_times


# evaluate_rows takes a batch in blocks of at most this many (edge, tile or
# cluster) x row cells, so each (T, n), (n, C) or (n, E) array of a block holds
# at most this many cells, however large the batch.
_BLOCK_CELLS = 1 << 16

# The tile cache's entry for a hosted set seen before it has a finite bound
# (or that has none): it reads as an infinite bound, so the set goes to the
# kernel whenever a row reaches it. Exact agings are >= 0 or NaN, and finite
# bounds are cached negated, so nothing else reads -inf.
_UNSEEN = -math.inf


class InfeasibleError(RuntimeError):
    """The instance admits no feasible mapping (more clusters than capacity)."""


def require_capacity(num_clusters: int, hw: HardwareConfig) -> None:
    """Raise InfeasibleError when num_clusters exceed hw's total capacity."""
    if num_clusters > hw.total_capacity:
        raise InfeasibleError(
            f"{num_clusters} clusters exceed total capacity {hw.total_capacity}"
        )


class Evaluation(NamedTuple):
    tau: float  # each field a float64 column when evaluate_rows returns it
    aging: float
    lam: float


def lambdas(tau: np.ndarray, aging: np.ndarray) -> np.ndarray:
    """lambda = tau * aging elementwise, and 0.0 wherever tau is 0: a mapping
    that takes no time scores 0 even when its aging is inf (0 * inf is NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(tau == 0.0, 0.0, tau * aging)


def _members(keys: list[bytes], words: int) -> list[list[int]]:
    """The cluster indices of each hosted-set key, decoded together."""
    bits = np.unpackbits(np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), 8 * words),
                         axis=1, bitorder="little")
    return [row.nonzero()[0].tolist() for row in bits]


class EvalContext:
    """Shared evaluation state: the instance, its parameters, and the tile
    aging cache.

    Tile aging (the combined aging of the tile's mechanisms) depends only on
    the cluster set the tile hosts (whose trains, with their predecessors',
    stress its circuits), never on which tile it is. So it is cached per
    hosted set, keyed by the bytes of the set's cluster bitmask, and each set
    goes at most once to the kernel for the search, evaluate and the oracle.
    A set the kernel has not needed yet holds its negated upper bound
    (hosted_set_aging_bounds) instead: exact agings are >= 0 or NaN, so the
    sign tells the two apart. Evaluations themselves are not stored: the
    swarm's archive is the only store.

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
        # An empty tile does not age: the all-zero mask maps to 0.0.
        self._tile_cache = {bytes(8 * -(-len(workload.snn.clusters) // 64)): 0.0}

    def worst_tile_agings(self, rows: np.ndarray) -> np.ndarray:
        """Aging of every row of an (n, C) array of tile indices (not validated
        here): the largest combined aging over its tiles. Each (tile, row)
        cell's hosted set is a C-bit mask in ceil(C / 64) little-endian uint64
        words, whose bytes key the tile cache, so every cluster count takes
        this one path.

        Every cell is read from the cache in one pass. A set not seen before
        is given its bound, from its source union's spike count. Only cells
        whose bound can still reach their row's worst exact aging go to the
        kernel and combine_aging, each set at most once: first, in each row,
        the cells of the largest bound; then every one whose bound is not
        below the row's new worst. A cell left out has a bound below that
        worst, so the result is the exact maximum over the row's tiles, NaN
        included (a NaN worst skips nothing)."""
        rows = np.asarray(rows)  # any integer type: np.add.at indexes with it as it is
        n, num_clusters = rows.shape
        words = -(-num_clusters // 64)
        cluster = np.arange(num_clusters)
        # Little-endian words, so that bit i of a key's bytes is cluster i.
        masks = np.zeros((self.hw.num_tiles, n, words), dtype="<u8")
        # A cell's bits are disjoint, so adding them is the same as OR-ing them.
        np.add.at(masks, (rows, np.arange(n)[:, None], cluster // 64),
                  np.uint64(1) << (cluster % 64).astype(np.uint64))
        keys = masks.view(f"V{8 * words}").ravel().tolist()
        cache, known = self._tile_cache, len(self._tile_cache)
        args = (self.workload, self.hw, self.aging_params)
        # One pass reads every cell. A set not seen before enters the cache
        # as _UNSEEN, so the new keys are the ones after the first `known`.
        cells = np.fromiter(map(cache.setdefault, keys, repeat(_UNSEEN)), np.float64, len(keys))
        grid = cells.reshape(self.hw.num_tiles, n)  # a view of cells
        # The worst exact aging of each row so far (a bounded cell counts 0).
        worst = grid.max(axis=0, initial=0.0)
        # Done when every bounded cell is below its row's worst. (count_nonzero,
        # not all(): NumPy's first whole-array reduction adds 64 kB of memory.)
        if np.count_nonzero(grid > -worst) == grid.size:
            return worst
        if len(cache) > known:
            new = list(islice(reversed(cache), len(cache) - known))
            bounds = hosted_set_aging_bounds(_members(new, words), *args)
            # A set without a finite bound keeps _UNSEEN; 0.0 - 0.0 is +0.0.
            cache.update(zip(new, (0.0 - bounds).tolist()))
            cells[:] = np.fromiter(map(cache.__getitem__, keys), np.float64, len(keys))
        for largest_only in (True, False):
            reach = (grid < 0.0) & ~(grid > -worst)
            if largest_only:  # the cells of their row's largest bound, its most negative
                reach &= grid == grid.min(axis=0, where=reach, initial=1.0)
            chosen = np.flatnonzero(reach)
            # The chosen cells are walked by their numpy indices, so that no
            # list as long as the batch is built.
            todo = [key for key in dict.fromkeys(map(keys.__getitem__, chosen))
                    if cache[key] < 0.0]
            for key, members in zip(todo, _members(todo, words)):
                mech = hosted_set_mechanism_agings(members, *args)
                cache[key] = combine_aging(*mech, self.aging_params.tddb.beta)
            cells[chosen] = np.fromiter(map(cache.__getitem__, map(keys.__getitem__, chosen)),
                                        np.float64, len(chosen))
            worst = grid.max(axis=0, initial=0.0)
        return worst

    def evaluate(self, mapping: Mapping) -> Evaluation:
        """Evaluation of one mapping, validated against the instance first;
        the n = 1 case of evaluate_rows."""
        tau = execution_time(self.workload.snn, mapping, self.hw, self.perf_params)
        aging = self.worst_tile_agings(np.asarray([mapping.assignment]))
        return Evaluation(tau, aging.item(), lambdas(tau, aging).item())

    def evaluate_rows(self, rows: np.ndarray) -> Evaluation:
        """evaluate for every row of an (n, C) array of feasible assignments,
        such as repair_rows returns, as float64 columns of length n; the rows
        are not validated again. The rows go in blocks of at most _BLOCK_CELLS
        cells; each fills its slice of the columns from one execution_times
        and one worst_tile_agings call."""
        snn, n = self.workload.snn, len(rows)
        step = max(1, _BLOCK_CELLS // max(len(snn.resolved_edges), len(snn.clusters),
                                          self.hw.num_tiles))
        tau, aging = np.empty(n), np.empty(n)
        for lo in range(0, n, step):
            block = rows[lo:lo + step]
            tau[lo:lo + step] = execution_times(block, snn, self.hw, self.perf_params)
            aging[lo:lo + step] = self.worst_tile_agings(block)
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


def _keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous (n, C) array as one opaque value, so that
    rows sort and compare whole."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


@dataclass(frozen=True, eq=False)
class Archive:
    """Every distinct evaluated mapping, in the order first evaluated, as
    read-only columns: the (N, C) assignment rows, float64 tau, aging and
    lambda, and the iteration each row first appeared in. As a sequence it
    yields ArchiveEntry values of Python ints and floats, converted a block of
    rows at a time."""

    rows: np.ndarray
    tau: np.ndarray
    aging: np.ndarray
    lam: np.ndarray
    iteration: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i: int) -> ArchiveEntry:
        return ArchiveEntry(tuple(self.rows[i].tolist()), self.tau[i].item(),
                            self.aging[i].item(), self.lam[i].item(), self.iteration[i].item())

    def __iter__(self) -> Iterator[ArchiveEntry]:
        for row, *values in self.records():
            yield ArchiveEntry(tuple(row), *values)

    def records(self) -> Iterator[tuple[list[int], float, float, float, int]]:
        """(assignment, tau, aging, lambda, iteration) of every entry in order,
        as Python values, without building any list as long as the archive."""
        step = max(1, _BLOCK_CELLS // self.rows.shape[1])
        columns = (self.rows, self.tau, self.aging, self.lam, self.iteration)
        for lo in range(0, len(self), step):
            yield from zip(*(c[lo:lo + step].tolist() for c in columns))

    def index(self, row: np.ndarray) -> int:
        """The position of an archived assignment row."""
        key = _keys(np.asarray(row, dtype=self.rows.dtype)[None])
        return int(np.flatnonzero(_keys(self.rows) == key)[0])


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first occurrence, ascending."""
    keys = _keys(rows)
    order = keys.argsort(kind="stable")  # a row's first occurrence leads its run
    ordered = keys[order]
    leads = np.ones(len(keys), dtype=bool)
    leads[1:] = ordered[1:] != ordered[:-1]
    return np.sort(order[leads])


def _archive(batches: list[tuple[np.ndarray, Evaluation]]) -> Archive:
    """The archive of a run's evaluated batches (one per iteration, in order,
    n_p rows each): the first occurrence of each distinct row, in evaluation
    order, whose iteration is its evaluation index // n_p."""
    rows = np.concatenate([b for b, _ in batches])
    first = _first_occurrences(rows)
    iteration = (first // len(batches[0][0])).astype(np.min_scalar_type(len(batches) - 1))
    columns = [rows[first], *(np.concatenate(c)[first] for c in zip(*(ev for _, ev in batches))),
               iteration]
    for column in columns:
        column.flags.writeable = False
    return Archive(*columns)


@dataclass
class SwarmState:
    """Mutable swarm snapshot; single writer, stepped in place."""

    positions: np.ndarray  # (n_p, C, T) real
    velocities: np.ndarray  # (n_p, C, T) real
    p_best: np.ndarray  # (n_p, C) int64 assignments of the personal bests
    p_best_fit: np.ndarray  # (n_p,) their objective values
    g_best: int  # the particle whose personal best is the global best
    iteration: int
    rng: np.random.Generator
    # Each update's rows, in the smallest unsigned type that holds a tile
    # index, and their Evaluation columns: the archive's source (_archive).
    batches: list[tuple[np.ndarray, Evaluation]] = field(default_factory=list)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """The logistic function of an array of one or more dimensions, without
    overflow: exp only ever sees -|v|. With e = exp(-|v|) <= 1, max(e, v >= 0)
    is 1 where v >= 0 and e elsewhere (NaN included), so one divide by 1 + e
    gives both of 1 / (1 + e) and e / (1 + e), branch-free; it and exp work in
    place."""
    e = -np.abs(v)
    np.exp(e, out=e)
    d = e + 1.0
    return np.divide(np.maximum(e, v >= 0.0, out=e), d, out=d)


def binarize(position: np.ndarray, velocity: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Stochastic binarization: bit_d = 0 with probability sigmoid(velocity_d),
    as 0/1 integers.

    The rule reads only the velocity; position is never read. One uniform draw
    per component, in array order. step_swarm makes the same draw from the
    sigmoid it also hands to repair, without calling this function, and keeps
    its bits as a bool array, ~(u < vhat), which has the same 1s as here (a
    NaN sigmoid draws a 1 in both); the bits only feed repair, and the real
    position keeps integrating the velocity.
    """
    # A trailing axis of length 1 gives a 0-d velocity the array that
    # _sigmoid's in-place steps need; [..., 0] takes it off again.
    vhat = _sigmoid(np.asarray(velocity, dtype=np.float64)[..., None])[..., 0]
    return np.where(rng.random(vhat.shape) < vhat, 0, 1)


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


@lru_cache(maxsize=16)
def _ring_orders(mesh: tuple[int, int]) -> dict[int, tuple[list[int], Iterator[int]]]:
    """tile -> (its ring order so far, the _ring_walk that extends it), shared
    by every repair_rows call on mesh."""
    return {}


def repair_rows(bits: np.ndarray, pref: np.ndarray, hw: HardwareConfig) -> np.ndarray:
    """Project a batch of (n, C, T) cluster-by-tile matrices, bool or integer
    (any nonzero entry is a 1), onto feasible assignments, returned as an
    (n, C) int64 array.

    A row with exactly one nonzero entry keeps its tile; any other row takes
    the column of highest pref (ties to the lowest tile). Overloaded tiles,
    visited in ascending index, evict their highest-index clusters first, each
    to the first tile with room in (manhattan hops, index) order, found by a
    ring walk out from the overloaded tile. A tile that is not overloaded at
    the start never becomes so, and one walk serves all of a tile's evictions,
    because the tiles it passes stay full.

    One NumPy pass lists every eviction of the batch: a stable sort of the
    clusters' (row, tile) offsets, clusters taken last to first, groups each
    tile's clusters highest index first, and all but a tile's cap lowest-index
    clusters leave. Only those evictions, ordered by (row, tile ascending,
    cluster descending), enter the Python loop, and their destinations are
    written back in one assignment. The ring order of each overloaded tile is
    kept per mesh (_ring_orders) as a list that every walk from that tile, in
    this call or a later one, reads and extends from the same _ring_walk, so it
    grows only as far as some walk went. The caller guarantees C <= total
    capacity.
    """
    nonzero = np.asarray(bits, dtype=bool)  # a bool array as it is; others != 0
    rows = np.where(nonzero.sum(axis=2) == 1, nonzero.argmax(axis=2),
                    np.asarray(pref).argmax(axis=2)).astype(np.int64)
    num_tiles, cap = hw.num_tiles, hw.tile_capacity
    offsets = (rows + num_tiles * np.arange(len(rows))[:, None]).ravel()[::-1]
    loads = np.bincount(offsets, minlength=len(rows) * num_tiles)
    order = offsets.argsort(kind="stable")  # by (row, tile), then cluster descending
    grouped = offsets[order]
    leaving = np.arange(len(order)) < np.cumsum(loads)[grouped] - cap
    rings, load, dests, group = _ring_orders(hw.mesh), loads.tolist(), [], -1
    for offset in grouped[leaving].tolist():
        if offset != group:  # a new overloaded (row, tile): its walk starts
            group, tile = offset, offset % num_tiles
            if tile not in rings:
                rings[tile] = ([], _ring_walk(tile, hw.mesh))
            (ring, walk), k, dest, base = rings[tile], 0, tile, offset - tile
        while load[base + dest] >= cap:
            try:
                dest = ring[k]
            except IndexError:  # past the ring order so far: the walk extends it
                dest = next(walk)
                ring.append(dest)
            k += 1
        dests.append(dest)
        load[base + dest] += 1
    np.put(rows, len(order) - 1 - order[leaving], dests)
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
    require_capacity(len(b), hw)
    prefm = np.zeros(b.shape) if pref is None else np.asarray(pref, dtype=np.float64)
    if prefm.shape != b.shape:
        raise ValueError(f"pref shape {prefm.shape} does not match {b.shape}")
    return Mapping(repair_rows(b[None], prefm[None], hw)[0].tolist())


def _random_corner(rng: np.random.Generator,
                   shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A random starting corner's uniform bits, then its repair preference."""
    return rng.integers(0, 2, shape), rng.random(shape)


def _corners(rows: np.ndarray, num_tiles: int) -> np.ndarray:
    """The binary corner of every row of an (n, C) assignment array: its
    one-hot (C, T) matrix, as an (n, C, T) float array."""
    out = np.zeros((*rows.shape, num_tiles))
    np.put_along_axis(out, rows[..., None], 1.0, axis=2)
    return out


def _update(state: SwarmState, rows: np.ndarray, ctx: EvalContext) -> None:
    """Evaluate one iteration's repaired rows in one batch, keep them with
    their evaluation for the archive, update personal bests on strict
    improvement, then the global best: only a minimum strictly below the
    incumbent's value before this update moves it (to the lowest index of that
    minimum)."""
    ev = ctx.evaluate_rows(rows)
    state.batches.append((rows.astype(np.min_scalar_type(ctx.hw.num_tiles - 1)), ev))
    scalar = ev.lam if ctx.objective == "lambda" else ev.tau
    incumbent = state.p_best_fit[state.g_best]
    improved = scalar < state.p_best_fit
    state.p_best_fit[improved] = scalar[improved]
    state.p_best[improved] = rows[improved]
    best = int(np.argmin(state.p_best_fit))
    if state.p_best_fit[best] < incumbent:
        state.g_best = best


def initialize_swarm(cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """Seeded start: every particle sits at a repaired random binary corner
    with zero velocity. The draws stay per particle (_random_corner); repair
    runs once over the stacked arrays, and the update step evaluates and
    archives them as iteration 0, from those rows as personal bests of inf and
    particle 0 as the global best (which an all-inf swarm keeps)."""
    num_clusters = len(ctx.workload.snn.clusters)
    require_capacity(num_clusters, ctx.hw)
    n_p, _ = cfg.resolved(num_clusters)
    rng = np.random.default_rng(cfg.seed)
    shape = (num_clusters, ctx.hw.num_tiles)
    bits, prefs = np.empty((n_p, *shape), dtype=np.int64), np.empty((n_p, *shape))
    for i in range(n_p):
        bits[i], prefs[i] = _random_corner(rng, shape)
    rows = repair_rows(bits, prefs, ctx.hw)
    positions = _corners(rows, ctx.hw.num_tiles)
    state = SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        p_best=rows,
        p_best_fit=np.full(n_p, math.inf),
        g_best=0,
        iteration=0,
        rng=rng,
    )
    _update(state, rows, ctx)
    return state


def step_swarm(state: SwarmState, cfg: PsoConfig, ctx: EvalContext) -> SwarmState:
    """One synchronous swarm iteration, mutating state in place.

    Velocity gains fresh uniform pulls toward the personal and global best
    corners and is clamped to +-v_clamp; the real position integrates it.
    Both arrays are updated in place, and r1 and r2 are scaled in place. A
    pull is (phi * r) * (best - pos), added as (v + A) + B, and best - pos is
    formed without the one-hot corner: 0.0 - pos (so +0.0 stays +0.0, where
    -pos would give -0.0), and 1.0 - pos at the corner's cells, so every bit
    is the one the whole corners gave. The sigmoid of the whole velocity is
    taken once: the swarm is binarized from it as a bool array, ~(u < vhat),
    with u drawn into r2's buffer (one draw, the same stream as one draw per
    particle in turn), and repaired with it as the preference. The update
    that also ends initialize_swarm then evaluates, archives and updates the
    bests.
    """
    pos, vel = state.positions, state.velocities
    toward = np.empty_like(pos)
    i, c = np.arange(len(pos))[:, None], np.arange(pos.shape[1])
    # r1 pulls toward each particle's personal best, r2 toward the global best.
    for phi, best in ((cfg.phi1, state.p_best), (cfg.phi2, state.p_best[state.g_best])):
        r = state.rng.random(pos.shape)
        r *= phi
        # best's corner minus pos: 0.0 - pos (+0.0 stays +0.0), 1.0 - pos at best
        np.subtract(0.0, pos, out=toward)
        toward[i, c, best] = 1.0 - pos[i, c, best]
        r *= toward  # (phi * r) * (best - pos)
        vel += r  # (v + A) + B
    np.clip(vel, -cfg.v_clamp, cfg.v_clamp, out=vel)
    pos += vel
    state.iteration += 1

    vhat = _sigmoid(vel)
    _update(state, repair_rows(~(state.rng.random(out=r) < vhat), vhat, ctx.hw), ctx)
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


def extract_pareto(archive: Archive) -> ParetoFront:
    """Exact non-dominated subset of the archive under (tau, aging) minimization,
    sorted by (tau, aging, assignment).

    NaN objectives are refused: they have no order, so neither the sort nor the
    sweep below could place them.
    """
    tau, aging = archive.tau, archive.aging
    if not len(tau):
        raise ValueError("archive is empty")
    if np.isnan(tau).any() or np.isnan(aging).any():
        raise ValueError("archive holds a NaN objective")
    # One sweep (Kung, Luccio & Preparata 1975) over the entries sorted by
    # (tau, aging): the first entry of each run of equal (tau, aging) is on the
    # front when it ages strictly less than every entry before it, and the rest
    # of its run with it. The fastest run is never dominated, even at inf aging.
    order = np.lexsort((aging, tau))
    t, a = tau[order], aging[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (t[1:] != t[:-1]) | (a[1:] != a[:-1])
    kept = np.ones(len(order), dtype=bool)
    kept[1:] = a[1:] < np.minimum.accumulate(a)[:-1]
    keep = order[kept[starts][np.cumsum(starts) - 1]]
    points = sorted(zip(tau[keep].tolist(), aging[keep].tolist(),
                        map(tuple, archive.rows[keep].tolist())))
    return ParetoFront(points=tuple(FrontPoint(Mapping(row), *values) for *values, row in points))


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
    archive: Archive
    iterations: int
    total_evaluations: int
    unique_mappings: int


def optimize(
    snn: ClusteredSnn, hw: HardwareConfig, cfg: PsoConfig, ctx: EvalContext
) -> OptimizeResult:
    """Full swarm run: seeded init, max_iterations steps, front extraction;
    the best mapping's values are read from the archive."""
    if ctx.workload.snn != snn or ctx.hw != hw:
        raise ValueError("ctx was built for a different instance")
    n_p, iters = cfg.resolved(len(snn.clusters))
    resolved = replace(cfg, n_particles=n_p, max_iterations=iters)
    state = initialize_swarm(resolved, ctx)
    for _ in range(iters):
        step_swarm(state, resolved, ctx)
    archive = _archive(state.batches)
    best = archive[archive.index(state.p_best[state.g_best])]
    return OptimizeResult(
        mapping=Mapping(best.assignment),
        evaluation=Evaluation(best.tau, best.aging, best.lam),
        front=extract_pareto(archive),
        archive=archive,
        iterations=iters,
        total_evaluations=n_p * (iters + 1),
        unique_mappings=len(archive),
    )
