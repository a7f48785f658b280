"""Regions of single-point domination: per-point and per-sample constructions,
edge extrema, minimum active sets, and the k-point generalization.

The region of a sample B is {z : B is inside N(z)}; it equals the
intersection of the per-point regions, and for the triangular families it is
determined by the three sample points closest to the edges (the edge
extrema).  Pieces are kept per partition cell, where each region is convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .geom import (
    EPS,
    ConvexPolygon,
    HalfPlane,
    Point2,
    Triangle,
    barycentric_coeffs,
    convex_hull,
    orient2,
)
from .proximity import (
    ProximityMapSpec,
    bary_coords,
    as_points_array,
    contains,
    edge_cells,
    vertex_cells,
)
from .regions import RegionPartition

POLY_EQ_TOL = 1e-8  # Hausdorff tolerance for region-equality decisions
# Closed-form PE decisions this close (in beta) to a polygon-route threshold
# take the polygon route instead.
CLOSED_FORM_MARGIN = 1e-6


@dataclass(frozen=True)
class Gamma1Region:
    """Union of at most three convex pieces (piece i inside partition cell i),
    or a single point, or empty."""

    pieces: tuple[ConvexPolygon, ...] = ()
    point: Optional[Point2] = None

    @staticmethod
    def empty() -> "Gamma1Region":
        return Gamma1Region()

    @staticmethod
    def singleton(p: Point2) -> "Gamma1Region":
        return Gamma1Region(point=Point2(*p))

    @property
    def is_empty(self) -> bool:
        return self.point is None and all(p.is_empty for p in self.pieces)

    def area(self) -> float:
        return sum(p.area() for p in self.pieces)

    def contains(self, z: Point2, eps: float = EPS) -> bool:
        if self.point is not None:
            return math.dist(self.point, z) <= eps
        return any(p.contains(z, eps) for p in self.pieces)

    def merged(self) -> Optional[ConvexPolygon]:
        """Single polygon when the union of pieces is convex, else None."""
        if self.point is not None:
            return ConvexPolygon([self.point])
        live = [p for p in self.pieces if not p.is_empty]
        if not live:
            return ConvexPolygon()
        hull = convex_hull([v for p in live for v in p.vertices])
        if abs(hull.area() - self.area()) > 1e-7 * max(1.0, hull.area()):
            return None
        return hull.simplified(1e-7)

    def equals(self, other: "Gamma1Region", tol: float = POLY_EQ_TOL) -> bool:
        if self.point is not None or other.point is not None:
            if self.point is None or other.point is None:
                return self.is_empty and other.is_empty
            return math.dist(self.point, other.point) <= tol
        a = list(self.pieces) + [ConvexPolygon()] * (len(other.pieces) - len(self.pieces))
        b = list(other.pieces) + [ConvexPolygon()] * (len(self.pieces) - len(other.pieces))
        return all(p.equals(q, tol) for p, q in zip(a, b))


@dataclass(frozen=True)
class EdgeExtrema:
    """Per edge i: the sample point minimizing the distance to edge i."""

    indices: tuple[int, int, int]
    points: tuple[Point2, Point2, Point2]
    distances: tuple[float, float, float]

    @property
    def distinct_count(self) -> int:
        return len(set(self.indices))


def edge_extrema(sample: Sequence[Point2], t: Triangle) -> EdgeExtrema:
    """Closest sample point to each edge; ties go to the smallest sample index."""
    if not len(sample):
        raise ValueError("edge extrema of an empty sample")
    pts = as_points_array(sample)
    b = bary_coords(t, pts)
    idx = tuple(np.argmin(b, axis=1).tolist())  # argmin returns the first minimizer
    dist = tuple(float(b[i, k] * t.edge_height(i)) for i, k in enumerate(idx))
    points = tuple(Point2(pts[k, 0], pts[k, 1]) for k in idx)
    return EdgeExtrema(idx, points, dist)  # type: ignore[arg-type]


def _pe_halfplane(spec: ProximityMapSpec, cell_index: int, beta: float) -> Optional[HalfPlane]:
    """Half-plane {z : beta_i(z) <= 1 - (1 - beta) / r} for cell i, where
    beta = beta_i(x)."""
    if math.isinf(spec.r):
        return None
    nx, ny, c, norm, _ = spec._pe_cell_constants[cell_index]
    bound = 1.0 - (1.0 - beta) / spec.r
    return HalfPlane(nx, ny, (bound - c) / norm)


def _cs_halfplanes(spec: ProximityMapSpec, cell_index: int, x: Point2) -> list[Optional[HalfPlane]]:
    """For z in edge cell j, membership x in N(z) is equivalent to three linear
    constraints tau*bm_k/bm_j*beta_j(z) - beta_k(z) + beta_k(x) >= 0 (k = 0..2);
    each yields one half-plane in z.  A vanishing normal means the constraint
    is unconditionally true (None) or unconditionally false (an empty marker).
    """
    t = spec.triangle
    coeffs = barycentric_coeffs(t)
    bm = t.barycentric(spec.edge_partition().m)
    bx = t.barycentric(x)
    j = cell_index
    out: list[Optional[HalfPlane]] = []
    for k in range(3):
        s = spec.tau * bm[k] / bm[j]
        a = s * coeffs[j][0] - coeffs[k][0]
        b = s * coeffs[j][1] - coeffs[k][1]
        c = s * coeffs[j][2] - coeffs[k][2]
        # constraint: a x + b y + c + beta_k(x) >= 0  <=>  -a x - b y <= c + beta_k(x)
        if math.hypot(a, b) <= 1e-13:
            if c + bx[k] < -1e-12:
                out.append(HalfPlane(1.0, 0.0, -math.inf))  # unsatisfiable
            else:
                out.append(None)
            continue
        out.append(HalfPlane.from_coeffs(-a, -b, c + bx[k]))
    return out


def _clip_cell(cell: ConvexPolygon, hps: Sequence[Optional[HalfPlane]]) -> ConvexPolygon:
    piece = cell
    for hp in hps:
        if hp is None:
            continue
        if math.isinf(hp.c):
            return ConvexPolygon()
        piece = piece.clip(hp)
        if piece.is_empty:
            break
    return piece


def _check_family(spec: ProximityMapSpec) -> RegionPartition:
    if spec.family == "pe":
        return spec.vertex_partition()
    if spec.family == "cs":
        return spec.edge_partition()
    raise ValueError(
        f"no analytic construction for family {spec.family!r}; use the grid predicate"
    )


def _outside_error(x) -> ValueError:
    return ValueError(f"sample point {tuple(map(float, x))} lies outside the triangle")


def _validated_points(spec: ProximityMapSpec, sample) -> np.ndarray:
    """The sample as an (n, 2) array, checked to lie in the triangle.

    Barycentric coordinates are evaluated elementwise as `Triangle.barycentric`
    does (orient2 over twice the area), so the check decides exactly as
    `Triangle.contains(p, 1e-7)`.
    """
    pts = as_points_array(sample)
    if not len(pts):
        raise ValueError("empty sample")
    vs = spec.triangle.vertices
    a2 = orient2(*vs)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.ones(len(pts), dtype=bool)
    for i in range(3):
        (bx, by), (cx, cy) = vs[(i + 1) % 3], vs[(i + 2) % 3]
        inside &= ((bx - x) * (cy - y) - (by - y) * (cx - x)) / a2 >= -1e-7
    if not inside.all():
        raise _outside_error(pts[int(np.argmin(inside))])
    return pts


def _vertex_hit(t: Triangle, x: Point2) -> Optional[Point2]:
    for v in t.vertices:
        if math.dist(v, x) <= EPS:
            return v
    return None


def _point_halfplanes(spec: ProximityMapSpec, cell_index: int, x: Point2, bx: Sequence[float]):
    """Half-planes of x for cell i; bx holds the barycentric coordinates of x."""
    if spec.family == "pe":
        return [_pe_halfplane(spec, cell_index, bx[cell_index])]
    return _cs_halfplanes(spec, cell_index, x)


def _degenerate_region(spec: ProximityMapSpec, sample: Sequence[Point2]) -> Optional[Gamma1Region]:
    """Handle the measure-zero conventions: triangle vertices under the
    proportional-edge map and tau = 0 under central similarity have {x} as
    their own region."""
    t = spec.triangle
    specials: list[Point2] = []
    if spec.family == "pe":
        specials = [v for x in sample if (v := _vertex_hit(t, x)) is not None]
    elif spec.tau == 0.0:
        specials = [Point2(*x) for x in sample]
    if not specials:
        return None
    anchor = specials[0]
    if all(math.dist(anchor, x) <= EPS for x in sample):
        return Gamma1Region.singleton(anchor)
    return Gamma1Region.empty()


def gamma1_point(spec: ProximityMapSpec, x: Point2) -> Gamma1Region:
    """Region of points whose proximity region captures x."""
    return gamma1_set(spec, [x])


def gamma1_set(spec: ProximityMapSpec, sample: Sequence[Point2]) -> Gamma1Region:
    """Region for a whole sample: per cell, sequentially clip by every sample
    point's half-planes (the intersection over per-point regions)."""
    if not len(sample):
        raise ValueError("empty sample")
    betas = [spec.triangle.barycentric(x) for x in sample]
    for x, bx in zip(sample, betas):
        if not all(b >= -1e-7 for b in bx):  # Triangle.contains(x, 1e-7)
            raise _outside_error(x)
    deg = _degenerate_region(spec, sample)
    if deg is not None:
        return deg
    part = _check_family(spec)
    pieces = []
    for i in range(3):
        piece = part.cells[i]
        for x, bx in zip(sample, betas):
            piece = _clip_cell(piece, _point_halfplanes(spec, i, x, bx))
            if piece.is_empty:
                break
        pieces.append(piece)
    return Gamma1Region(tuple(pieces))


def gamma1_from_extrema(spec: ProximityMapSpec, extrema_points: Sequence[Point2]) -> Gamma1Region:
    """Region built from the three edge extrema only (may repeat points)."""
    return gamma1_set(spec, list(extrema_points))


def gamma1_via_extrema(spec: ProximityMapSpec, sample: Sequence[Point2]) -> Gamma1Region:
    """Region computed from the (at most 3) edge extrema; equals gamma1_set."""
    _validated_points(spec, sample)
    deg = _degenerate_region(spec, sample)
    if deg is not None:
        return deg
    ext = edge_extrema(sample, spec.triangle)
    return gamma1_from_extrema(spec, ext.points)


@dataclass(frozen=True)
class ActiveSetResult:
    eta: int
    witness: tuple[int, ...]


def _pareto_min_indices(b: np.ndarray) -> list[int]:
    """Indices of points minimal under componentwise ordering of the columns
    of the (3, n) barycentric matrix.

    Replacing a point of an active subset by one that dominates it from below
    keeps the joint region sandwiched between the sample's region and itself,
    so a minimum active subset always exists among these points.
    """
    n = b.shape[1]
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(b[:, j] <= b[:, i] + 1e-15) and np.any(b[:, j] < b[:, i] - 1e-15):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def _eta_pe_from_kinds(spec: ProximityMapSpec, b: np.ndarray, kinds: Sequence[str]) -> ActiveSetResult:
    """Exact minimum active subset for the proportional-edge family in O(n).

    Per cell, the joint region's piece depends only on the smallest
    barycentric coordinate over the subset; a piece equal to the whole cell
    constrains nothing, a proper piece must be pinned by the per-edge minimum,
    and an empty piece needs any point deep enough to keep it empty.  `b` is
    the (3, n) matrix of `bary_coords` and kinds[i] is "whole", "empty" or
    "proper" for cell i's piece.
    """
    r = spec.r
    masks = np.zeros(b.shape[1], dtype=np.int64)
    required = 0
    for i, (*_, scale, cellmin) in enumerate(spec._pe_cell_constants):
        if kinds[i] == "whole":
            continue  # no constraint from this cell
        required |= 1 << i
        if kinds[i] == "empty":
            # bound(v) = 1 - (1 - v)/r must sit below every cell vertex
            bits = (1.0 - (1.0 - b[i]) / r) < cellmin - EPS * scale
        else:
            bits = b[i] <= float(b[i].min()) + 1e-12
        masks |= bits.astype(np.int64) << i
    hit = masks & required
    full = np.flatnonzero(hit == required)
    if len(full):
        return ActiveSetResult(1, (int(full[0]),))
    values, first = np.unique(hit, return_index=True)
    items = sorted((int(k), int(m)) for m, k in zip(values, first) if m)
    for a, (i1, m1) in enumerate(items):
        for i2, m2 in items[a + 1:]:
            if (m1 | m2) == required:
                return ActiveSetResult(2, (i1, i2))
    return ActiveSetResult(3, tuple(sorted(set(np.argmin(b, axis=1).tolist()))))


def _eta_pe_polygons(spec: ProximityMapSpec, sample: Sequence[Point2], target: Gamma1Region) -> ActiveSetResult:
    """The piece kinds read off the region's polygons."""
    kinds = [
        "whole" if piece.equals(cell) else "empty" if piece.is_empty else "proper"
        for piece, cell in zip(target.pieces, spec.vertex_partition().cells)
    ]
    return _eta_pe_from_kinds(spec, bary_coords(spec.triangle, as_points_array(sample)), kinds)


def _eta_pe_closed_form(spec: ProximityMapSpec, pts: np.ndarray) -> Optional[ActiveSetResult]:
    """The piece kinds read off v_i, the least beta_i over the sample, for
    finite r; None when the polygon route must decide.

    Cell i's piece is cell_i cut by {beta_i <= bound_i}, bound_i = 1 -
    (1 - v_i)/r.  The clip keeps a vertex within EPS of the half-plane, so the
    piece is empty when bound_i < cellmin_i - EPS * |grad beta_i|; it is the
    whole cell only when the cut passes within POLY_EQ_TOL + EPS of vertex i.
    Within the margin of either threshold, or when an edge extremum sits on a
    triangle vertex (a degenerate region), None defers to the polygons.
    """
    t = spec.triangle
    b = bary_coords(t, pts)
    ext = np.argmin(b, axis=1).tolist()
    if _degenerate_region(spec, [Point2(pts[k, 0], pts[k, 1]) for k in ext]) is not None:
        return None
    kinds = []
    for i, (*_, scale, cellmin) in enumerate(spec._pe_cell_constants):
        bound = 1.0 - (1.0 - float(b[i, ext[i]])) / spec.r
        floor = cellmin - EPS * scale
        # rounding, plus the EPS slack of up to three clips, in beta units
        margin = CLOSED_FORM_MARGIN + 4.0 * EPS * scale
        if abs(bound - floor) <= margin or 1.0 - bound <= scale * (POLY_EQ_TOL + EPS) + margin:
            return None
        kinds.append("empty" if bound < floor else "proper")
    return _eta_pe_from_kinds(spec, b, kinds)


def eta_value(
    spec: ProximityMapSpec,
    sample: Sequence[Point2],
    exhaustive: bool = False,
    max_exhaustive: int = 20,
) -> ActiveSetResult:
    """Minimum number of sample points whose joint region equals the sample's.

    The default mode is exact: for the proportional-edge family via per-cell
    masks, with the piece kinds read from the barycentric matrix (the
    region's polygons settle the cases within CLOSED_FORM_MARGIN of a
    threshold); for central similarity via a subset search over the
    Pareto-minimal points (which provably contain a minimum active subset).
    Exhaustive mode searches all subsets by increasing cardinality (an
    independent oracle), capped at `max_exhaustive` points.  `sample` may be
    a sequence of points or an (n, 2) array.
    """
    pts = _validated_points(spec, sample)
    if not exhaustive and spec.family == "pe" and not math.isinf(spec.r):
        res = _eta_pe_closed_form(spec, pts)
        if res is not None:
            return res
    sample = [Point2(*p) for p in pts.tolist()]
    if exhaustive:
        if len(sample) > max_exhaustive:
            raise ValueError(f"exhaustive active-set search capped at {max_exhaustive} points")
        target = gamma1_set(spec, sample)
        candidate_indices = list(range(len(sample)))
    else:
        _check_family(spec)
        ext = edge_extrema(sample, spec.triangle)
        target = gamma1_from_extrema(spec, ext.points)
        if spec.family == "pe" and not math.isinf(spec.r) and len(target.pieces) == 3:
            return _eta_pe_polygons(spec, sample, target)
        candidate_indices = _pareto_min_indices(bary_coords(spec.triangle, pts))
    for k in range(1, len(candidate_indices) + 1):
        for subset in combinations(candidate_indices, k):
            region = gamma1_set(spec, [sample[i] for i in subset])
            if region.equals(target):
                return ActiveSetResult(k, subset)
    # The full candidate set always reproduces the region.
    raise RuntimeError(
        f"no subset of the n={len(sample)} sample reproduces its region under "
        f"{spec.describe()}; region equality failed numerically"
    )


def eta_value_interval(sample: Sequence[float]) -> ActiveSetResult:
    """1-D active set: the min and max determine the region."""
    if not len(sample):
        raise ValueError("empty sample")
    lo_i = min(range(len(sample)), key=lambda i: (sample[i], i))
    hi_i = max(range(len(sample)), key=lambda i: (sample[i], -i))
    if abs(sample[lo_i] - sample[hi_i]) <= 1e-12:
        return ActiveSetResult(1, (min(lo_i, hi_i),))
    return ActiveSetResult(2, tuple(sorted((lo_i, hi_i))))


# ---------------------------------------------------------------------------
# 1-D regions with anchors {0, 1}
# ---------------------------------------------------------------------------


def _check_unit_sample(sample: Sequence[float]) -> None:
    if not len(sample):
        raise ValueError("empty sample")
    if any(not (0.0 < x < 1.0) for x in sample):
        raise ValueError("1-D sample must lie strictly inside (0, 1)")


def gamma1_interval_1d(sample: Sequence[float]) -> tuple[float, float]:
    """The interval (max/2, (1+min)/2) of points covering the whole sample."""
    _check_unit_sample(sample)
    return max(sample) / 2.0, (1.0 + min(sample)) / 2.0


def gamma2_rectangles_1d(sample: Sequence[float]) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Pairs region for anchors {0,1}: the union over split points k of
    (x_(k)/2, x_(n)/2) x ((1+x_(1))/2, (1+x_(k+1))/2), as axis rectangles."""
    _check_unit_sample(sample)
    xs = sorted(sample)
    n = len(xs)
    out = []
    for k in range(1, n):
        out.append(
            (
                (xs[k - 1] / 2.0, xs[n - 1] / 2.0),
                ((1.0 + xs[0]) / 2.0, (1.0 + xs[k]) / 2.0),
            )
        )
    return out


# ---------------------------------------------------------------------------
# k-point regions via the membership predicate
# ---------------------------------------------------------------------------


def covers(spec: ProximityMapSpec, dominators: Sequence, sample: Sequence) -> bool:
    """True when every sample point lies in some dominator's region."""
    return all(any(contains(spec, d, x) for d in dominators) for x in sample)


def gamma_k_membership(spec: ProximityMapSpec, tuple_points: Sequence, sample: Sequence) -> bool:
    """Whether a k-tuple lies in the k-point region of the sample.

    Per the recursive definition this is exactly: the tuple covers the sample
    and no proper sub-tuple covers it (a minimal cover of size k).
    """
    k = len(tuple_points)
    if k == 0 or k > len(sample):
        return False
    if not covers(spec, tuple_points, sample):
        return False
    for m in range(1, k):
        for sub in combinations(tuple_points, m):
            if covers(spec, sub, sample):
                return False
    return True


# ---------------------------------------------------------------------------
# Grid predicate (oracle for the analytic construction; the only route for
# the spherical and arc-slice families).
# ---------------------------------------------------------------------------


def gamma1_predicate_mask(spec: ProximityMapSpec, sample: Sequence[Point2], zs: np.ndarray) -> np.ndarray:
    """Vectorized indicator of {z : every sample point is inside N(z)}."""
    pts = as_points_array(sample)
    zs = as_points_array(zs)
    m = len(zs)
    if spec.family == "pe":
        t = spec.triangle
        bz = bary_coords(t, zs)
        bx = bary_coords(t, pts)
        cz = vertex_cells(spec, zs)
        if math.isinf(spec.r):
            return np.ones(m, dtype=bool)
        own = 1.0 - bz[cz, np.arange(m)]
        depth = (1.0 - bx)[cz]  # (m, n): 1 - beta_{cell(z)}(x_k)
        return np.all(depth <= spec.r * own[:, None] + 1e-12, axis=1)
    if spec.family == "cs":
        t = spec.triangle
        bz = bary_coords(t, zs)
        bx = bary_coords(t, pts)
        cz = edge_cells(spec, zs)
        bm = np.asarray(t.barycentric(spec.edge_partition().m))
        rho = spec.tau * bz[cz, np.arange(m)] / bm[cz]
        ok = np.ones(m, dtype=bool)
        for k in range(3):
            ok &= bm[k] * rho - bz[k] + bx[k].min() >= -1e-12
        return ok
    if spec.family in ("spherical", "arcslice"):
        anchors = as_points_array(spec.points if spec.family == "spherical" else spec.triangle.vertices)
        d_anchor = np.sqrt(np.sum((zs[:, None, :] - anchors[None, :, :]) ** 2, axis=2)).min(axis=1)
        d_far = np.sqrt(np.sum((zs[:, None, :] - pts[None, :, :]) ** 2, axis=2)).max(axis=1)
        if spec.family == "spherical":
            return d_far < d_anchor
        return d_far <= d_anchor + 1e-12
    raise ValueError(f"unsupported family {spec.family!r}")


def gamma1_grid_area(
    spec: ProximityMapSpec,
    sample: Sequence[Point2],
    resolution: int = 400,
    refine: int = 4,
) -> float:
    """Grid estimate of the region area: uniform grid over the context's
    bounding box, with cells straddling the indicator boundary refined
    `refine` x `refine`.

    For the whole-plane spherical family the grid spans the anchor bounding
    box expanded by half its diagonal (the region cannot be pinned to a
    triangle there); for the other families it spans the context triangle.
    """
    t = spec.triangle
    if t is not None:
        xs = [v[0] for v in t.vertices]
        ys = [v[1] for v in t.vertices]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    else:
        anchors = as_points_array(spec.points)
        x0, x1 = float(anchors[:, 0].min()), float(anchors[:, 0].max())
        y0, y1 = float(anchors[:, 1].min()), float(anchors[:, 1].max())
        pad = 0.5 * math.hypot(x1 - x0, y1 - y0)
        x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    nx = ny = int(resolution)
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    cx = x0 + (np.arange(nx) + 0.5) * hx
    cy = y0 + (np.arange(ny) + 0.5) * hy
    gx, gy = np.meshgrid(cx, cy)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    if t is not None:
        in_tri = np.all(bary_coords(t, centers) >= 0.0, axis=0)
    else:
        in_tri = np.ones(len(centers), dtype=bool)
    mask = np.zeros(len(centers), dtype=bool)
    if in_tri.any():
        mask[in_tri] = gamma1_predicate_mask(spec, sample, centers[in_tri])
    grid = mask.reshape(ny, nx)
    cell_area = hx * hy
    if refine <= 1:
        return float(grid.sum() * cell_area)
    edge = np.zeros_like(grid)
    edge[:-1, :] |= grid[:-1, :] != grid[1:, :]
    edge[1:, :] |= grid[:-1, :] != grid[1:, :]
    edge[:, :-1] |= grid[:, :-1] != grid[:, 1:]
    edge[:, 1:] |= grid[:, :-1] != grid[:, 1:]
    interior_area = float((grid & ~edge).sum() * cell_area)
    iy, ix = np.nonzero(edge)
    if len(ix) == 0:
        return interior_area
    sub = (np.arange(refine) + 0.5) / refine
    offx, offy = np.meshgrid(sub * hx, sub * hy)
    fine = np.column_stack(
        [
            (x0 + ix[:, None] * hx + offx.ravel()[None, :]).ravel(),
            (y0 + iy[:, None] * hy + offy.ravel()[None, :]).ravel(),
        ]
    )
    if t is not None:
        fin = np.all(bary_coords(t, fine) >= 0.0, axis=0)
    else:
        fin = np.ones(len(fine), dtype=bool)
    fmask = np.zeros(len(fine), dtype=bool)
    if fin.any():
        fmask[fin] = gamma1_predicate_mask(spec, sample, fine[fin])
    return interior_area + float(fmask.sum()) * cell_area / (refine * refine)
