"""Exhaustive ground truth for small mapping instances.

Only one feasible assignment per orbit of the mesh's isometries (the
reflection of each axis, and the transpose on a square mesh) is enumerated
and evaluated: the orbit's lexicographically smallest row, its canonical row.
The canonical rows are built directly as one (N, C) integer array, in
lexicographic order: a prefix is dropped as soon as an isometry maps it to a
smaller one, so the full feasible table is never held. The reduction is
exact, not approximate, because every member of an orbit has the same tau,
aging and lambda to the last bit: a tile's aging depends only on the cluster
set it hosts, never on where the tile sits, and tau is an exact integer sum
over tile loads and Manhattan hops, which an isometry permutes without
changing, followed by the same float operations. The enumeration guard
still counts every feasible mapping, not the orbits.

The canonical rows' tau, aging and lambda columns come from one call to the
swarm's batch evaluator, EvalContext.evaluate_rows, which splits the rows into
blocks of bounded size itself. They are bit-identical to EvalContext.evaluate
on each mapping, and the optimum's evaluation is read from them, not computed
again. One table serves both the optimum and the front when the caller builds
it once and passes it to each.

Memory: the rows and the tile loads take the smallest unsigned type that
holds every tile index and every tile load, since the rows are only used as
indices or turned into Python ints. So a canonical row costs C bytes plus its
three float64 columns. The guard caps the rows, and an evaluation block holds
at most a fixed number of cells per array whatever N is.

Everything here is deliberately independent of the swarm's search: the
optimum is the first argmin over the canonical rows, which is the first
argmin over the full table since that row is the smallest of its orbit. The
front is the maxima sweep of Kung, Luccio and Preparata (JACM 1975), written
apart from the swarm's extract_pareto: the distinct (tau, aging) pairs are
sorted, and a pair is kept iff its aging is below the running minimum of the
pairs before it. The canonical rows carry every pair the full table has, and
each kept row is expanded back to its whole orbit. Used to validate optimizer
output and exposed through the CLI's verify command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .model import ClusteredSnn, HardwareConfig, Mapping
from .swarm import EvalContext, Evaluation, FrontPoint, ParetoFront, require_capacity

ENUMERATION_GUARD = 10 ** 6


class GuardExceededError(RuntimeError):
    """The instance is too large to enumerate within the configured guard."""

    def __init__(self, count: int, limit: int) -> None:
        super().__init__(
            f"instance admits {count} feasible assignments, over the enumeration "
            f"guard of {limit}"
        )
        self.count = count
        self.limit = limit


def count_feasible_mappings(num_clusters: int, num_tiles: int, capacity: int) -> int:
    """Exact count of capacity-respecting assignments.

    DP over tiles: choosing which s of the r unplaced clusters a tile hosts
    contributes comb(r, s) branches, so the count never requires enumeration.
    """
    dp = [0] * (num_clusters + 1)
    dp[num_clusters] = 1  # all clusters still unplaced
    for _ in range(num_tiles):
        nxt = [0] * (num_clusters + 1)
        for r, ways in enumerate(dp):
            if ways == 0:
                continue
            for s in range(min(capacity, r) + 1):
                nxt[r - s] += ways * comb(r, s)
        dp = nxt
    return dp[0]


def _canonical_rows(snn: ClusteredSnn, hw: HardwareConfig) -> np.ndarray:
    """(N, C) array of the smallest row of each orbit of feasible assignments
    under the mesh's isometries, in lexicographic order, in the smallest
    unsigned type that holds every tile index and every tile load. The
    feasibility check and the guard, which counts every feasible assignment,
    run first."""
    num_clusters = len(snn.clusters)
    require_capacity(num_clusters, hw)
    count = count_feasible_mappings(num_clusters, hw.num_tiles, hw.tile_capacity)
    if count > ENUMERATION_GUARD:
        raise GuardExceededError(count, ENUMERATION_GUARD)

    # Extend every row by one cluster per step: each row repeats once per tile
    # that still has room, tiles ascending, so the order stays lexicographic.
    # Orderly generation (Read 1978): tied holds the non-identity maps that fix
    # each row's prefix. A tied map that sends the new tile lower drops the
    # child, whose image is a smaller row; one that sends it higher unties.
    moves = _mesh_isometries(hw)[1:].T - np.arange(hw.num_tiles)[:, None]  # image - tile
    # A load never passes the cluster count, however large the capacity.
    dtype = np.min_scalar_type(max(hw.num_tiles - 1, min(hw.tile_capacity, num_clusters)))
    rows = np.zeros((1, 0), dtype=dtype)
    loads = np.zeros((1, hw.num_tiles), dtype=dtype)
    tied = np.ones((1, moves.shape[1]), dtype=bool)
    for c in range(num_clusters):
        parent, tile = np.nonzero(loads < hw.tile_capacity)
        keep = ~(tied[parent] & (moves[tile] < 0)).any(axis=1)
        parent, tile = parent[keep], tile[keep]
        rows = np.column_stack((rows[parent], tile.astype(dtype)))
        if c + 1 < num_clusters:
            tied = tied[parent] & (moves[tile] == 0)
            loads = loads[parent]
            loads[np.arange(tile.size), tile] += 1
    return rows


def _mesh_isometries(hw: HardwareConfig) -> np.ndarray:
    """(k, T) array of the distinct tile permutations that keep every hop
    distance of the mesh: the reflections of each axis, and on a square mesh
    the transpose too (8 on a square, 4 on a rectangle, fewer on a 1xT mesh).
    Row 0 is the identity, the lexicographically smallest permutation."""
    width, height = hw.mesh
    y, x = np.divmod(np.arange(hw.num_tiles), width)
    ry, rx = height - 1 - y, width - 1 - x
    maps = [y * width + x, y * width + rx, ry * width + x, ry * width + rx]
    if width == height:
        maps += [x * width + y, x * width + ry, rx * width + y, rx * width + ry]
    return np.array(sorted({tuple(m.tolist()) for m in maps}))


def _objective_table(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext
) -> tuple[np.ndarray, Evaluation]:
    """The canonical rows, as _canonical_rows enumerates them (no other row is
    built), and their evaluation columns. NaN objectives are refused, as
    extract_pareto refuses them: they have no order."""
    rows = _canonical_rows(snn, hw)
    ev = ctx.evaluate_rows(rows)
    if np.isnan(ev.tau).any() or np.isnan(ev.aging).any():
        raise ValueError("an objective evaluates to NaN")
    return rows, ev


@dataclass(frozen=True)
class BruteForceOptimum:
    mapping: Mapping
    evaluation: Evaluation


def brute_force_optimum(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext,
    table: tuple[np.ndarray, Evaluation] | None = None,
) -> BruteForceOptimum:
    """Exact argmin of lambda over the feasible set; lexicographic first on ties.
    table is _objective_table(snn, hw, ctx), built here when not given."""
    rows, ev = _objective_table(snn, hw, ctx) if table is None else table
    i = int(np.argmin(ev.lam))
    return BruteForceOptimum(mapping=Mapping(rows[i].tolist()),
                             evaluation=Evaluation._make(c[i].item() for c in ev))


def brute_force_pareto(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext,
    table: tuple[np.ndarray, Evaluation] | None = None,
) -> ParetoFront:
    """Exact non-dominated set over all feasible mappings, by the maxima sweep
    of Kung, Luccio and Preparata over the distinct (tau, aging) pairs (kept
    separate from the swarm's extract_pareto on purpose). Points are ordered by
    (tau, aging, assignment).
    table is _objective_table(snn, hw, ctx), built here when not given."""
    rows, (tau, aging, _) = _objective_table(snn, hw, ctx) if table is None else table
    order = np.lexsort((aging, tau))
    tau, aging = tau[order], aging[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (tau[1:] != tau[:-1]) | (aging[1:] != aging[:-1])
    # Sorted by (tau, aging), a distinct pair is dominated iff an earlier pair
    # has no larger aging: it is kept iff its aging is below all of theirs.
    distinct = aging[starts]
    on_front = np.ones(distinct.size, dtype=bool)
    on_front[1:] = distinct[1:] < np.minimum.accumulate(distinct)[:-1]
    keep = np.flatnonzero(on_front[np.cumsum(starts) - 1])
    # Every member of a kept row's orbit shares its objectives. np.unique drops
    # the repeats of rows that some map fixes and sorts the rest; the stable
    # lexsort keeps that assignment order among equal objectives.
    group = _mesh_isometries(hw)
    members, first = np.unique(group[:, rows[order[keep]]].reshape(-1, rows.shape[1]),
                               axis=0, return_index=True)
    source = np.tile(keep, len(group))[first]
    order = np.lexsort((aging[source], tau[source]))
    members, source = members[order], source[order]
    points = zip(members.tolist(), tau[source].tolist(), aging[source].tolist())
    return ParetoFront(points=tuple(
        FrontPoint(mapping=Mapping(r), tau=t, aging=a) for r, t, a in points))
