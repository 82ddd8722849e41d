"""Exhaustive ground truth for small mapping instances.

Every feasible assignment is held as one row of an (N, C) integer array, in
lexicographic order, and tau, aging and lambda are computed for blocks of
rows at once through the swarm's own evaluator: perf.execution_times for tau,
EvalContext.worst_tile_agings for aging and swarm.lambdas for lambda. The
values are therefore bit-identical to EvalContext.evaluate on each mapping.

Everything here is deliberately independent of the swarm's search: the
optimum is the first argmin over the full table, and the Pareto filter is the
plain quadratic dominance check, run over the distinct (tau, aging) pairs in
blocks of bounded memory rather than the swarm's sort-and-sweep. Used to
validate optimizer output and exposed through the CLI's verify command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

import numpy as np

from .model import ClusteredSnn, HardwareConfig, Mapping
from .perf import execution_times
from .swarm import EvalContext, Evaluation, FrontPoint, InfeasibleError, ParetoFront, lambdas

ENUMERATION_GUARD = 10 ** 6
# Cells per block of the (tile, mapping) arrays and of the dominance filter's
# comparison matrix, so the oracle's working memory stays bounded.
_BLOCK_CELLS = 1 << 20


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


def _assignment_table(snn: ClusteredSnn, hw: HardwareConfig) -> np.ndarray:
    """(N, C) array of every feasible assignment, rows in lexicographic order.
    The guard and feasibility checks run before any row is built."""
    num_clusters = len(snn.clusters)
    if num_clusters > hw.total_capacity:
        raise InfeasibleError(
            f"{num_clusters} clusters exceed total capacity {hw.total_capacity}"
        )
    count = count_feasible_mappings(num_clusters, hw.num_tiles, hw.tile_capacity)
    if count > ENUMERATION_GUARD:
        raise GuardExceededError(count, ENUMERATION_GUARD)

    # Extend every row by one cluster per step: each row repeats once per tile
    # that still has room, tiles ascending, so the order stays lexicographic.
    rows = np.zeros((1, 0), dtype=np.int64)
    loads = np.zeros((1, hw.num_tiles), dtype=np.int64)
    for c in range(num_clusters):
        parent, tile = np.nonzero(loads < hw.tile_capacity)
        rows = np.column_stack((rows[parent], tile))
        if c + 1 < num_clusters:
            loads = loads[parent]
            loads[np.arange(tile.size), tile] += 1
    return rows


def enumerate_mappings(snn: ClusteredSnn, hw: HardwareConfig) -> Iterator[Mapping]:
    """Yield every feasible mapping exactly once, in lexicographic assignment
    order. The guard and feasibility checks fire eagerly at call time."""
    rows = _assignment_table(snn, hw)
    return (Mapping(r) for r in rows.tolist())


def _objective_table(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, tau, aging) over every feasible mapping. NaN objectives are
    refused, as extract_pareto refuses them: they have no order."""
    rows = _assignment_table(snn, hw)
    step = max(1, _BLOCK_CELLS // ctx.hw.num_tiles)
    blocks = [rows[i:i + step] for i in range(0, rows.shape[0], step)]
    tau = np.concatenate([
        execution_times(b, ctx.workload.snn, ctx.hw, ctx.perf_params) for b in blocks
    ])
    aging = np.concatenate([ctx.worst_tile_agings(b) for b in blocks])
    if np.isnan(tau).any() or np.isnan(aging).any():
        raise ValueError("an objective evaluates to NaN")
    return rows, tau, aging


@dataclass(frozen=True)
class BruteForceOptimum:
    mapping: Mapping
    evaluation: Evaluation


def brute_force_optimum(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext
) -> BruteForceOptimum:
    """Exact argmin of lambda over the feasible set; lexicographic first on ties."""
    rows, tau, aging = _objective_table(snn, hw, ctx)
    best = Mapping(rows[int(np.argmin(lambdas(tau, aging)))].tolist())
    return BruteForceOptimum(mapping=best, evaluation=ctx.evaluate(best))


def _non_dominated(tau: np.ndarray, aging: np.ndarray) -> np.ndarray:
    """Quadratic dominance filter over distinct pairs sorted by (tau, aging).

    A dominator is never larger in either objective and differs in one, so it
    sorts before the point it dominates: each block of points is checked
    against the prefix up to its own end only.
    """
    n = tau.size
    keep = np.empty(n, dtype=bool)
    side = isqrt(_BLOCK_CELLS)
    lo = 0
    while lo < n:
        # step <= side, so step * (lo + step) <= _BLOCK_CELLS
        hi = min(n, lo + max(1, _BLOCK_CELLS // (lo + side)))
        tp, ap = tau[lo:hi, None], aging[lo:hi, None]
        tq, aq = tau[None, :hi], aging[None, :hi]
        dominated = (tq <= tp) & (aq <= ap) & ((tq < tp) | (aq < ap))
        keep[lo:hi] = ~dominated.any(axis=1)
        lo = hi
    return keep


def brute_force_pareto(
    snn: ClusteredSnn, hw: HardwareConfig, ctx: EvalContext
) -> ParetoFront:
    """Exact non-dominated set over all feasible mappings, by the quadratic
    dominance filter (kept separate from the swarm's sweep on purpose)."""
    rows, tau, aging = _objective_table(snn, hw, ctx)
    # Stable sort: equal pairs keep row order, which is assignment order.
    order = np.lexsort((aging, tau))
    tau, aging = tau[order], aging[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (tau[1:] != tau[:-1]) | (aging[1:] != aging[:-1])
    keep = _non_dominated(tau[starts], aging[starts])[np.cumsum(starts) - 1]
    return ParetoFront(points=tuple(
        FrontPoint(mapping=Mapping(r), tau=t, aging=a)
        for r, t, a in zip(rows[order[keep]].tolist(), tau[keep].tolist(),
                           aging[keep].tolist())
    ))
