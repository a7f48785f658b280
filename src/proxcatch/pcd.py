"""Proximity catch digraphs and their invariants: domination number,
family-wise bounds on it, and relative arc density.

The digraph on a sample has an arc i -> j exactly when sample point j lies in
the proximity region of sample point i; it is stored as a boolean adjacency
matrix.  A vertex dominates itself and its out-neighbors; the domination
number is settled by array tests when it is 1 or 2, and otherwise found
exactly by a branch-and-bound search over closed out-neighborhood bitmasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

from .geom import CENTROID, CenterSelector, Point2, Triangle, center
from .gamma import gamma1_interval_1d
from .proximity import ProximityMapSpec, adjacency, as_points_array


@dataclass(frozen=True, eq=False)
class PcdDigraph:
    """Vertex count and loop-free adjacency matrix: `adj[i, j]` is the arc
    i -> j.  The matrix is kept as a read-only `bool[n, n]` view."""

    n: int
    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adj)
        if adj.dtype != bool or adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be a bool array of shape ({self.n}, {self.n})")
        if adj.diagonal().any():
            raise ValueError("a proximity catch digraph has no loops")
        adj = adj.view()
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PcdDigraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.adj, other.adj))

    @staticmethod
    def from_arcs(n: int, arcs) -> "PcdDigraph":
        """Digraph from (i, j) index pairs; loops and out-of-range arcs raise."""
        a = np.array([(int(i), int(j)) for i, j in arcs], dtype=np.int64).reshape(-1, 2)
        bad = (a[:, 0] == a[:, 1]) | (a < 0).any(axis=1) | (a >= n).any(axis=1)
        if bad.any():
            i, j = a[np.argmax(bad)].tolist()
            raise ValueError(f"invalid arc ({i}, {j}) for a digraph on {n} vertices")
        adj = np.zeros((n, n), dtype=bool)
        adj[a[:, 0], a[:, 1]] = True
        return PcdDigraph(n, adj)

    def closed_out_masks(self) -> list[int]:
        """Bitmask per vertex: itself plus its out-neighbors."""
        return _row_masks(_closed(self))

    def to_json_dict(self, spec: Optional[ProximityMapSpec] = None, seed: Optional[int] = None) -> dict:
        # argwhere lists the arcs row-major, i.e. sorted as [i, j] pairs
        d: dict = {"n": self.n, "arcs": np.argwhere(self.adj).tolist()}
        d["spec"] = spec.describe() if spec is not None else None
        d["seed"] = seed
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "PcdDigraph":
        return PcdDigraph.from_arcs(int(d["n"]), d["arcs"])

    def write_json(self, fh, spec: Optional[ProximityMapSpec] = None, seed: Optional[int] = None) -> None:
        """Write the bytes of `json.dump(self.to_json_dict(spec, seed), fh,
        indent=1)` plus a newline, one `fh.write` per adjacency row.

        The stdlib encoder writes everything but the arcs (so r = inf stays
        `Infinity` and floats keep their repr); the arcs are spliced in.
        """
        described = spec.describe() if spec is not None else None
        doc = json.dumps({"n": self.n, "arcs": [], "spec": described, "seed": seed}, indent=1)
        # the first match is the arcs key: "n" precedes it and holds an int
        head, _, tail = doc.partition('"arcs": []')
        fh.write(head + '"arcs": [')
        cols = np.nonzero(self.adj)[1].tolist()  # row-major, as argwhere
        if cols:
            names = [str(k) for k in range(self.n)]
            lead, close = "\n", "\n  ]"
            k = 0
            for i, count in enumerate(np.count_nonzero(self.adj, axis=1).tolist()):
                if count:
                    # row i's arcs "  [\n   i,\n   j\n  ]", joined by ",\n"
                    open_ = "  [\n   " + names[i] + ",\n   "
                    js = [names[j] for j in cols[k : k + count]]
                    fh.write(lead + open_ + (close + ",\n" + open_).join(js) + close)
                    lead = ",\n"
                    k += count
            fh.write("\n ")
        fh.write("]" + tail + "\n")


def _closed(d: PcdDigraph) -> np.ndarray:
    """Closed out-neighborhood matrix: the adjacency plus the diagonal."""
    c = d.adj.copy()
    np.fill_diagonal(c, True)
    return c


def _row_masks(c: np.ndarray) -> list[int]:
    """Row i of a bool matrix as an int with bit j = c[i, j]."""
    packed = np.packbits(c, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def build_pcd(spec: ProximityMapSpec, points) -> PcdDigraph:
    """Digraph with an arc i -> j iff point j is inside N(point i)."""
    adj = adjacency(spec, points)
    np.fill_diagonal(adj, False)
    return PcdDigraph(len(adj), adj)


def arc_density(d: PcdDigraph) -> float:
    """|arcs| / (n (n - 1))."""
    if d.n < 2:
        raise ValueError("relative arc density needs at least two vertices")
    return int(np.count_nonzero(d.adj)) / (d.n * (d.n - 1))


@dataclass(frozen=True)
class DominationResult:
    gamma: int
    witness: tuple[int, ...]


_EXHAUSTIVE_LIMIT = 24
# entries of the pair test's product computed at once (bounds its memory)
_PAIR_BLOCK_ELEMS = 1 << 20


def _dominating_pair(c: np.ndarray, deg: np.ndarray) -> Optional[tuple[int, int]]:
    """A pair of rows of the closed matrix whose union is all true, if any.

    Only rows with deg[u] + max(deg) >= n can be in such a pair.  For the
    candidate rows U of ~c, (U @ U.T)[a, b] counts the columns false in both
    rows a and b, so a zero marks a dominating pair.  The float32 counts are
    exact integers while n < 2**24.  The product is formed in row blocks and
    the search stops at the first block with a zero.
    """
    n = len(c)
    cand = np.flatnonzero(deg >= n - deg.max())
    if len(cand) < 2:
        return None
    u = (~c[cand]).astype(np.float32)
    block = max(1, _PAIR_BLOCK_ELEMS // len(cand))
    for s in range(0, len(cand), block):
        hits = np.argwhere(u[s : s + block] @ u.T == 0)
        if len(hits):
            a, b = hits[0].tolist()
            return tuple(sorted((int(cand[s + a]), int(cand[b]))))
    return None


def domination_number(d: PcdDigraph, kmax: Optional[int] = None) -> DominationResult:
    """Exact minimum dominating set.

    With the closed matrix C = adj | I: gamma = 1 iff some row of C is all
    true; gamma <= 2 is settled by a pair test over rows of C (see
    `_dominating_pair`); larger sets come from a branch and bound on bitmask
    covers, deepened from max(3, ceil(n / max row sum)).

    Without `kmax` the search is allowed only up to 24 vertices; with `kmax`
    (use the family's worst-case bound) any size is accepted, and a ValueError
    signals that no dominating set of size <= kmax exists.
    """
    n = d.n
    if n == 0:
        raise ValueError("domination number of an empty digraph")
    if kmax is None and n > _EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to {_EXHAUSTIVE_LIMIT} vertices; pass kmax")
    limit_max = min(kmax, n) if kmax is not None else n
    c = _closed(d)
    deg = np.count_nonzero(c, axis=1)
    if limit_max >= 1:
        full_rows = np.flatnonzero(deg == n)
        if len(full_rows):
            return DominationResult(1, (int(full_rows[0]),))
    if limit_max >= 2:
        pair = _dominating_pair(c, deg)
        if pair is not None:
            return DominationResult(2, pair)
    first = max(3, -(-n // int(deg.max())))
    if first > limit_max:
        raise ValueError(f"no dominating set of size <= {limit_max}")

    masks = _row_masks(c)
    full = (1 << n) - 1
    dominators_of = [[u for u, x in enumerate(col) if x] for col in c.T.tolist()]

    def dfs(covered: int, chosen: list[int], limit: int) -> Optional[list[int]]:
        if covered == full:
            return chosen
        if len(chosen) >= limit:
            return None
        # branch on the uncovered vertex with the fewest dominators
        best_v, best_cands = -1, None
        rem = full & ~covered
        v = 0
        while rem:
            if rem & 1:
                cands = [u for u in dominators_of[v] if masks[u] & ~covered]
                if best_cands is None or len(cands) < len(best_cands):
                    best_v, best_cands = v, cands
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

    for limit in range(first, limit_max + 1):
        res = dfs(0, [], limit)
        if res is not None:
            return DominationResult(len(res), tuple(sorted(res)))
    raise ValueError(f"no dominating set of size <= {limit_max}")


KappaBound = Union[int, Literal["unbounded", "unknown"]]


def kappa_upper_bound(spec: ProximityMapSpec) -> KappaBound:
    """Almost-sure least upper bound on the domination number, per family."""
    if spec.family == "pe":
        return 3
    if spec.family == "interval":
        return 2
    if spec.family == "cs":
        return "unbounded"
    return "unknown"


def pe_three_point_cover(spec: ProximityMapSpec, points) -> tuple[int, ...]:
    """For each nonempty vertex cell, the sample point closest to the opposite
    edge; the returned index set dominates the proportional-edge digraph."""
    if spec.family != "pe":
        raise ValueError("three-point cover applies to the proportional-edge family")
    from .proximity import bary_coords, vertex_cells

    pts = as_points_array(points)
    if len(pts) == 0:
        raise ValueError("empty sample")
    cells = vertex_cells(spec, pts)
    b = bary_coords(spec.triangle, pts)
    witness = []
    for i in range(3):
        members = np.nonzero(cells == i)[0]
        if len(members) == 0:
            continue
        k = members[int(np.argmin(b[i, members]))]
        witness.append(int(k))
    return tuple(sorted(set(witness)))


def cs_gamma_n_construction(
    n: int,
    t: Triangle,
    tau: float,
    center_sel: CenterSelector = CENTROID,
    epsilon: Optional[float] = None,
    rng=None,
) -> list[Point2]:
    """Points realizing domination number n under central similarity.

    Place n similar subtriangles of base 1/n along the edge between the first
    two vertices and put each point at the M-analogous center of its
    subtriangle.  With epsilon > 0 (and an rng) each point is jittered
    uniformly in a disk of that radius; `default_cs_epsilon` gives the
    base-length/(8n) default.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError("construction needs tau in (0, 1]")
    m = center(t, center_sel)
    v0, v1 = t.vertices[0], t.vertices[1]
    out = []
    for i in range(n):
        zx = v0[0] + (i / n) * (v1[0] - v0[0]) + (m[0] - v0[0]) / n
        zy = v0[1] + (i / n) * (v1[1] - v0[1]) + (m[1] - v0[1]) / n
        if epsilon:
            if rng is None:
                raise ValueError("epsilon jitter needs an rng")
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            zx += rad * math.cos(ang)
            zy += rad * math.sin(ang)
        out.append(Point2(zx, zy))
    return out


def default_cs_epsilon(n: int, t: Triangle) -> float:
    base = math.dist(t.vertices[0], t.vertices[1])
    return base / (8.0 * n)


def interval_domination(sample: Sequence[float]) -> DominationResult:
    """Exact domination number for the 1-D map with anchors {0, 1}.

    Equals 1 iff some sample point lies in the covering interval; otherwise 2,
    witnessed by the innermost points on each side of 1/2.
    """
    if not len(sample):
        raise ValueError("empty sample")
    lo, hi = gamma1_interval_1d(sample)
    for idx, x in enumerate(sample):
        if lo < x < hi:
            return DominationResult(1, (idx,))
    left = [i for i, x in enumerate(sample) if x <= 0.5]
    right = [i for i, x in enumerate(sample) if x > 0.5]
    assert left and right, "one-sided samples always have domination number 1"
    i1 = max(left, key=lambda i: sample[i])
    i2 = min(right, key=lambda i: sample[i])
    return DominationResult(2, tuple(sorted((i1, i2))))
