"""Reference domination search over a frozenset of arcs.

This is the arc-set representation and iterative-deepening bitmask search that
`proxcatch.pcd` used before the digraph became a boolean matrix.  Tests compare
`domination_number` against it; it deepens from size 1, so it shares none of
the matrix tests that settle gamma <= 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

EXHAUSTIVE_LIMIT = 24


def arcs_of(adj: np.ndarray) -> frozenset[tuple[int, int]]:
    """The loop-free arc set of a boolean adjacency matrix."""
    ii, jj = np.nonzero(adj)
    return frozenset((i, j) for i, j in zip(ii.tolist(), jj.tolist()) if i != j)


def closed_out_masks(n: int, arcs: frozenset[tuple[int, int]]) -> list[int]:
    masks = [1 << i for i in range(n)]
    for i, j in arcs:
        masks[i] |= 1 << j
    return masks


def dominates(n: int, arcs: frozenset[tuple[int, int]], chosen) -> bool:
    masks = closed_out_masks(n, arcs)
    covered = 0
    for u in chosen:
        covered |= masks[u]
    return covered == (1 << n) - 1


def brute_force_gamma(n: int, arcs: frozenset[tuple[int, int]]) -> int:
    """Smallest k such that some k-subset dominates, by enumeration."""
    for k in range(1, n + 1):
        if any(dominates(n, arcs, sub) for sub in combinations(range(n), k)):
            return k
    raise ValueError("domination number of an empty digraph")


def reference_domination(
    n: int, arcs: frozenset[tuple[int, int]], kmax: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """(gamma, witness); raises ValueError exactly where `domination_number` must."""
    for i, j in arcs:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"invalid arc ({i}, {j}) for a digraph on {n} vertices")
    if n == 0:
        raise ValueError("domination number of an empty digraph")
    if kmax is None and n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to {EXHAUSTIVE_LIMIT} vertices; pass kmax")
    masks = closed_out_masks(n, arcs)
    full = (1 << n) - 1
    dominators_of = [[u for u in range(n) if (masks[u] >> v) & 1] for v in range(n)]
    limit_max = min(kmax, n) if kmax is not None else n

    def dfs(covered: int, chosen: list[int], limit: int) -> Optional[list[int]]:
        if covered == full:
            return chosen
        if len(chosen) >= limit:
            return None
        best_cands = None
        rem = full & ~covered
        v = 0
        while rem:
            if rem & 1:
                cands = [u for u in dominators_of[v] if masks[u] & ~covered]
                if best_cands is None or len(cands) < len(best_cands):
                    best_cands = cands
                    if len(cands) <= 1:
                        break
            rem >>= 1
            v += 1
        if not best_cands:
            return None
        best_cands.sort(key=lambda u: -(masks[u] & ~covered).bit_count())
        for u in best_cands:
            res = dfs(covered | masks[u], chosen + [u], limit)
            if res is not None:
                return res
        return None

    for limit in range(1, limit_max + 1):
        res = dfs(0, [], limit)
        if res is not None:
            return len(res), tuple(sorted(res))
    raise ValueError(f"no dominating set of size <= {limit_max}")
