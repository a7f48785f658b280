"""Proximity maps: region construction and the membership predicate y in N(x).

Five families are supported:

* ``pe``  -- proportional-edge map with scale r >= 1 and M-vertex regions.
* ``cs``  -- central-similarity map with scale tau in [0, 1] and M-edge regions.
* ``spherical`` -- open ball around x with radius min distance to the anchors.
* ``arcslice``  -- that ball (closed) clipped to the triangle.
* ``interval``  -- the 1-D ball within the cell of a sorted anchor set.

Proximity regions are closed sets for the triangular families, open balls for
the spherical/interval families; the distinction only matters on measure-zero
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Sequence

import numpy as np

from .geom import (
    CENTROID,
    EPS,
    CenterSelector,
    ConvexPolygon,
    Point2,
    Triangle,
    barycentric_coeffs,
    center,
    triangle_polygon,
)
from .regions import RegionPartition, edge_regions, locate, vertex_regions

Family = Literal["pe", "cs", "spherical", "arcslice", "interval"]


@dataclass(frozen=True)
class ProximityMapSpec:
    """A fully specified proximity map: family, parameter, center, and context."""

    family: Family
    triangle: Optional[Triangle] = None
    r: Optional[float] = None
    tau: Optional[float] = None
    center: CenterSelector = CENTROID
    anchors: tuple[float, ...] = ()
    points: tuple[Point2, ...] = ()

    def __post_init__(self) -> None:
        if self.family == "pe":
            if self.triangle is None:
                raise ValueError("proportional-edge map needs a context triangle")
            if self.r is None or (not math.isinf(self.r) and not self.r >= 1.0):
                raise ValueError(f"proportional-edge scale must be >= 1 (or inf), got {self.r}")
            self.vertex_partition()  # validates the center eagerly
        elif self.family == "cs":
            if self.triangle is None:
                raise ValueError("central-similarity map needs a context triangle")
            if self.tau is None or not (0.0 <= self.tau <= 1.0):
                raise ValueError(f"central-similarity scale must be in [0, 1], got {self.tau}")
            self.edge_partition()
        elif self.family == "spherical":
            if not self.points:
                raise ValueError("spherical map needs a nonempty anchor point set")
        elif self.family == "arcslice":
            if self.triangle is None:
                raise ValueError("arc-slice map needs a context triangle")
        elif self.family == "interval":
            ys = self.anchors
            if not ys or any(b <= a for a, b in zip(ys, ys[1:])):
                raise ValueError("interval map needs a sorted set of distinct anchors")
        else:
            raise ValueError(f"unknown proximity family {self.family!r}")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def pe(triangle: Triangle, r: float, center: CenterSelector = CENTROID) -> "ProximityMapSpec":
        return ProximityMapSpec("pe", triangle=triangle, r=float(r), center=center)

    @staticmethod
    def cs(triangle: Triangle, tau: float, center: CenterSelector = CENTROID) -> "ProximityMapSpec":
        return ProximityMapSpec("cs", triangle=triangle, tau=float(tau), center=center)

    @staticmethod
    def spherical(points: Sequence[Point2]) -> "ProximityMapSpec":
        return ProximityMapSpec("spherical", points=tuple(Point2(*p) for p in points))

    @staticmethod
    def arc_slice(triangle: Triangle) -> "ProximityMapSpec":
        return ProximityMapSpec("arcslice", triangle=triangle)

    @staticmethod
    def interval(anchors: Sequence[float] = (0.0, 1.0)) -> "ProximityMapSpec":
        return ProximityMapSpec("interval", anchors=tuple(float(y) for y in anchors))

    # -- derived context ---------------------------------------------------
    def center_point(self) -> Point2:
        assert self.triangle is not None
        return center(self.triangle, self.center)

    def vertex_partition(self) -> RegionPartition:
        return self._vertex_partition

    def edge_partition(self) -> RegionPartition:
        return self._edge_partition

    @cached_property
    def _vertex_partition(self) -> RegionPartition:
        assert self.triangle is not None
        return vertex_regions(self.triangle, self.center)

    @cached_property
    def _edge_partition(self) -> RegionPartition:
        assert self.triangle is not None
        return edge_regions(self.triangle, self.center)

    @cached_property
    def _vertex_cell_frame(self) -> tuple[np.ndarray, ...]:
        return _vertex_rays(self.triangle, self.vertex_partition().m)

    @cached_property
    def _edge_cell_frame(self) -> tuple[np.ndarray, ...]:
        return _edge_rays(self.triangle, self.edge_partition().m)

    @cached_property
    def _pe_cell_constants(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """Per vertex cell i: (nx, ny, c, norm, cellmin) with beta_i(z) =
        norm * (nx * z.x + ny * z.y) + c and cellmin the least beta_i over the
        cell's vertices."""
        t = self.triangle
        out = []
        for i, (a, b, c) in enumerate(barycentric_coeffs(t)):
            norm = math.hypot(a, b)
            if norm <= EPS:
                raise ValueError("half-plane with a vanishing normal")
            cellmin = min(t.barycentric(w)[i] for w in self.vertex_partition().cells[i].vertices)
            out.append((a / norm, b / norm, c, norm, cellmin))
        return tuple(out)

    def param_label(self) -> str:
        if self.family == "pe":
            return f"r={self.r}"
        if self.family == "cs":
            return f"tau={self.tau}"
        return ""

    def center_label(self) -> str:
        if self.family not in ("pe", "cs"):
            return ""
        if isinstance(self.center, str):
            return self.center
        return f"({self.center[0]},{self.center[1]})"

    def describe(self) -> dict:
        d: dict = {"family": self.family}
        if self.family == "pe":
            d["r"] = self.r
            d["center"] = self.center_label()
        elif self.family == "cs":
            d["tau"] = self.tau
            d["center"] = self.center_label()
        if self.triangle is not None:
            d["triangle"] = [list(v) for v in self.triangle.vertices]
        if self.anchors:
            d["anchors"] = list(self.anchors)
        if self.points:
            d["points"] = [list(p) for p in self.points]
        return d


@dataclass(frozen=True)
class ProximityRegion:
    """The image N(x): a polygon, a disk, a disk-triangle intersection,
    an interval, or a single point."""

    kind: Literal["polygon", "disk", "disk_triangle", "interval", "point"]
    polygon: Optional[ConvexPolygon] = None
    disk_center: Optional[Point2] = None
    radius: float = 0.0
    triangle: Optional[Triangle] = None
    lo: float = 0.0
    hi: float = 0.0
    point: Optional[Point2] = None
    x1d: Optional[float] = None

    def area(self) -> float:
        if self.kind == "polygon":
            return self.polygon.area()
        if self.kind == "disk":
            return math.pi * self.radius**2
        if self.kind == "disk_triangle":
            return disk_triangle_area(self.disk_center, self.radius, self.triangle)
        if self.kind == "interval":
            return self.hi - self.lo
        return 0.0

    def contains(self, y, eps: float = EPS) -> bool:
        if self.kind == "polygon":
            return self.polygon.contains(y, eps)
        if self.kind == "disk":
            return math.dist(self.disk_center, y) < self.radius
        if self.kind == "disk_triangle":
            return math.dist(self.disk_center, y) <= self.radius + eps and self.triangle.contains(y, eps)
        if self.kind == "interval":
            return self.lo < y < self.hi
        if self.point is not None:
            return math.dist(self.point, y) <= eps
        return abs(self.x1d - y) <= eps


def _singleton(x) -> ProximityRegion:
    if isinstance(x, (int, float)):
        return ProximityRegion("point", x1d=float(x))
    return ProximityRegion("point", point=Point2(*x))


def _require_in_triangle(t: Triangle, x: Point2) -> None:
    if not t.contains(x, 1e-7):
        raise ValueError(f"point {tuple(x)} lies outside the context triangle")


def _vertex_index(t: Triangle, x: Point2) -> Optional[int]:
    for i, v in enumerate(t.vertices):
        if math.dist(v, x) <= EPS:
            return i
    return None


def pe_region(spec: ProximityMapSpec, x: Point2) -> ProximityRegion:
    """Proportional-edge region: the similar triangle grown from the vertex
    whose region contains x, scaled by r along the parallel through x, clipped
    to the context triangle."""
    t = spec.triangle
    _require_in_triangle(t, x)
    if _vertex_index(t, x) is not None:
        return _singleton(x)
    if math.isinf(spec.r):
        return ProximityRegion("polygon", polygon=triangle_polygon(t))
    i = locate(spec.vertex_partition(), x)
    depth = 1.0 - t.barycentric(x)[i]
    s = min(spec.r * depth, 1.0)
    v = t.vertices[i]
    verts = [Point2(v[0] + s * (w[0] - v[0]), v[1] + s * (w[1] - v[1])) for w in t.vertices]
    return ProximityRegion("polygon", polygon=ConvexPolygon(verts))


def cs_region(spec: ProximityMapSpec, x: Point2) -> ProximityRegion:
    """Central-similarity region: the triangle similar to the context with x
    sitting in it the way M sits in the context, with the near edge at
    tau times x's distance to its edge."""
    t = spec.triangle
    _require_in_triangle(t, x)
    if spec.tau == 0.0:
        return _singleton(x)
    part = spec.edge_partition()
    j = locate(part, x)
    bx = t.barycentric(x)[j]
    if bx <= EPS:  # x on the triangle boundary
        return _singleton(x)
    m = part.m
    rho = spec.tau * bx / t.barycentric(m)[j]
    verts = [Point2(x[0] + rho * (w[0] - m[0]), x[1] + rho * (w[1] - m[1])) for w in t.vertices]
    return ProximityRegion("polygon", polygon=ConvexPolygon(verts))


def spherical_region(points: Sequence[Point2], x: Point2) -> ProximityRegion:
    """Open ball around x with radius the distance to the nearest anchor."""
    if not points:
        raise ValueError("spherical map needs a nonempty anchor point set")
    r = min(math.dist(x, p) for p in points)
    if r <= EPS:
        return _singleton(x)
    return ProximityRegion("disk", disk_center=Point2(*x), radius=r)


def arc_slice_region(spec: ProximityMapSpec, x: Point2) -> ProximityRegion:
    t = spec.triangle
    _require_in_triangle(t, x)
    r = min(math.dist(x, v) for v in t.vertices)
    if r <= EPS:
        return _singleton(x)
    return ProximityRegion("disk_triangle", disk_center=Point2(*x), radius=r, triangle=t)


def interval_region(anchors: Sequence[float], x: float) -> ProximityRegion:
    """1-D ball within the anchor cell containing x; end cells extend outward."""
    ys = sorted(anchors)
    if any(abs(x - y) <= EPS for y in ys):
        return _singleton(x)
    r = min(abs(x - y) for y in ys)
    return ProximityRegion("interval", lo=x - r, hi=x + r, x1d=float(x))


def region(spec: ProximityMapSpec, x) -> ProximityRegion:
    if spec.family == "pe":
        return pe_region(spec, x)
    if spec.family == "cs":
        return cs_region(spec, x)
    if spec.family == "spherical":
        return spherical_region(spec.points, x)
    if spec.family == "arcslice":
        return arc_slice_region(spec, x)
    return interval_region(spec.anchors, x)


def region_area(spec: ProximityMapSpec, x) -> float:
    return region(spec, x).area()


def contains(spec: ProximityMapSpec, x, y, eps: float = EPS) -> bool:
    """Exact membership y in N(x), computed without materializing the region."""
    if spec.family == "pe":
        t = spec.triangle
        _require_in_triangle(t, x)
        _require_in_triangle(t, y)
        if _vertex_index(t, x) is not None:
            return math.dist(x, y) <= eps
        if math.isinf(spec.r):
            return True
        i = locate(spec.vertex_partition(), x)
        bx = t.barycentric(x)[i]
        by = t.barycentric(y)[i]
        return (1.0 - by) <= spec.r * (1.0 - bx) + eps
    if spec.family == "cs":
        t = spec.triangle
        _require_in_triangle(t, x)
        _require_in_triangle(t, y)
        if spec.tau == 0.0:
            return math.dist(x, y) <= eps
        part = spec.edge_partition()
        j = locate(part, x)
        bx = t.barycentric(x)[j]
        if bx <= EPS:
            return math.dist(x, y) <= eps
        rho = spec.tau * bx / t.barycentric(part.m)[j]
        w = Point2(part.m[0] + (y[0] - x[0]) / rho, part.m[1] + (y[1] - x[1]) / rho)
        return t.contains(w, eps)
    if spec.family == "spherical":
        r = min(math.dist(x, p) for p in spec.points)
        return math.dist(x, y) < r if r > EPS else math.dist(x, y) <= eps
    if spec.family == "arcslice":
        t = spec.triangle
        _require_in_triangle(t, x)
        r = min(math.dist(x, v) for v in t.vertices)
        return math.dist(x, y) <= r + eps and t.contains(y, eps)
    # interval
    ys = sorted(spec.anchors)
    if any(abs(x - a) <= EPS for a in ys):
        return abs(x - y) <= eps
    r = min(abs(x - a) for a in ys)
    return abs(y - x) < r


# ---------------------------------------------------------------------------
# Exact disk/triangle intersection area via circular-segment decomposition.
# ---------------------------------------------------------------------------


def disk_triangle_area(c: Point2, radius: float, t: Triangle) -> float:
    """Area of the intersection of the disk B(c, radius) with the triangle.

    Each directed triangle edge contributes the signed area of the wedge
    (c, a, b) clipped to the disk: chord pieces give straight triangles,
    outside pieces give circular sectors.
    """
    if radius <= 0.0:
        return 0.0
    total = 0.0
    vs = t.vertices
    for i in range(3):
        a, b = vs[i], vs[(i + 1) % 3]
        total += _wedge_area(c, radius, a, b)
    return abs(total)


def _wedge_area(c: Point2, R: float, a: Point2, b: Point2) -> float:
    ax, ay = a[0] - c[0], a[1] - c[1]
    bx, by = b[0] - c[0], b[1] - c[1]
    # split [a, b] at its intersections with the circle
    dx, dy = bx - ax, by - ay
    qa = dx * dx + dy * dy
    qb = 2.0 * (ax * dx + ay * dy)
    qc = ax * ax + ay * ay - R * R
    ts = [0.0, 1.0]
    disc = qb * qb - 4.0 * qa * qc
    if disc > 0.0 and qa > 0.0:
        rt = math.sqrt(disc)
        for tval in ((-qb - rt) / (2.0 * qa), (-qb + rt) / (2.0 * qa)):
            if 1e-12 < tval < 1.0 - 1e-12:
                ts.append(tval)
    ts.sort()
    area = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        mx, my = ax + dx * (t0 + t1) / 2.0, ay + dy * (t0 + t1) / 2.0
        px, py = ax + dx * t0, ay + dy * t0
        qx, qy = ax + dx * t1, ay + dy * t1
        if mx * mx + my * my <= R * R:
            area += 0.5 * (px * qy - qx * py)
        else:
            ang = math.atan2(py * qx - px * qy, px * qx + py * qy)
            area += -0.5 * R * R * ang
    return area


def disk_triangle_area_mc(c: Point2, radius: float, t: Triangle, n: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of the disk/triangle intersection area.

    Samples uniformly in the disk's bounding box; returns (mean, std error).
    """
    xs = rng.uniform(c[0] - radius, c[0] + radius, size=n)
    ys = rng.uniform(c[1] - radius, c[1] + radius, size=n)
    inside_disk = (xs - c[0]) ** 2 + (ys - c[1]) ** 2 <= radius * radius
    coeffs = np.asarray(barycentric_coeffs(t))
    b = coeffs[:, 0:1] * xs[None, :] + coeffs[:, 1:2] * ys[None, :] + coeffs[:, 2:3]
    inside = inside_disk & np.all(b >= 0.0, axis=0)
    box = (2.0 * radius) ** 2
    p = inside.mean()
    se = box * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return box * p, se


# ---------------------------------------------------------------------------
# Vectorized kernels (numpy).  These assume generic samples: no sample point
# exactly on a region boundary or a triangle vertex (measure zero for
# continuous distributions).
# ---------------------------------------------------------------------------


def as_points_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 2) if arr.size else arr.reshape(0, 2)
    return arr


def bary_coords(t: Triangle, pts: np.ndarray) -> np.ndarray:
    """(3, n) barycentric coordinates of the rows of pts."""
    coeffs = np.asarray(barycentric_coeffs(t))
    return coeffs[:, 0:1] * pts[:, 0][None, :] + coeffs[:, 1:2] * pts[:, 1][None, :] + coeffs[:, 2:3]


def _vertex_rays(t: Triangle, m: Point2) -> tuple[np.ndarray, ...]:
    """Constants of `vertex_cells`: ray j runs from vertex j towards M."""
    ux, uy, ox, oy = (np.empty((3, 1)) for _ in range(4))
    side = np.empty((3, 3))
    for j in range(3):
        v = t.vertices[j]
        dx, dy = m[0] - v[0], m[1] - v[1]
        norm = math.hypot(dx, dy)
        ux[j], uy[j], ox[j], oy[j] = dx / norm, dy / norm, v[0], v[1]
        for i in range(3):
            w = t.vertices[i]
            side[j, i] = np.sign(ux[j, 0] * (w[1] - v[1]) - uy[j, 0] * (w[0] - v[0]))
    return ux, uy, ox, oy, side


def _edge_rays(t: Triangle, m: Point2) -> tuple[np.ndarray, ...]:
    """Constants of `edge_cells`: ray j runs from M towards vertex j."""
    ux, uy, ox, oy = (np.empty((3, 1)) for _ in range(4))
    side = np.empty((3, 3))
    for j in range(3):
        v = t.vertices[j]
        dx, dy = v[0] - m[0], v[1] - m[1]
        norm = math.hypot(dx, dy)
        ux[j], uy[j], ox[j], oy[j] = dx / norm, dy / norm, m[0], m[1]
        for i in range(3):
            a, b = t.edge(i)
            mid = Point2((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            side[j, i] = np.sign((dx * (mid[1] - m[1]) - dy * (mid[0] - m[0])) / norm)
    return ux, uy, ox, oy, side


def _cells(frame: tuple[np.ndarray, ...], part: RegionPartition, pts: np.ndarray) -> np.ndarray:
    """Cell i holds the points on cell i's side (within EPS) of every ray
    j != i; ties go to the smallest index."""
    ux, uy, ox, oy, side = frame
    signs = ux * (pts[:, 1] - oy) - uy * (pts[:, 0] - ox)  # (ray j, point)
    ok = signs[:, None, :] * side[:, :, None] >= -EPS  # (ray j, cell i, point)
    ok[np.arange(3), np.arange(3)] = True
    inside = ok.all(axis=0)
    out = np.where(inside.any(axis=0), inside.argmax(axis=0), -1)
    if np.any(out < 0):  # numerically awkward points: fall back to the scalar rule
        for k in np.nonzero(out < 0)[0]:
            out[k] = locate(part, Point2(pts[k, 0], pts[k, 1]))
    return out


def vertex_cells(spec: ProximityMapSpec, pts: np.ndarray) -> np.ndarray:
    """Vectorized vertex-region index per point (ties to the smallest index)."""
    return _cells(spec._vertex_cell_frame, spec.vertex_partition(), pts)


def edge_cells(spec: ProximityMapSpec, pts: np.ndarray) -> np.ndarray:
    """Vectorized edge-region index per point (ties to the smallest index)."""
    return _cells(spec._edge_cell_frame, spec.edge_partition(), pts)


def adjacency(spec: ProximityMapSpec, points) -> np.ndarray:
    """Boolean matrix A with A[i, j] = (x_j in N(x_i)); the diagonal is not cleared."""
    if spec.family == "interval":
        xs = np.asarray(points, dtype=float).ravel()
        ys = np.asarray(spec.anchors)
        r = np.min(np.abs(xs[:, None] - ys[None, :]), axis=1)
        return np.abs(xs[None, :] - xs[:, None]) < np.maximum(r[:, None], EPS)
    pts = as_points_array(points)
    n = len(pts)
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    if spec.family == "pe":
        b = bary_coords(spec.triangle, pts)
        cells = vertex_cells(spec, pts)
        depth = 1.0 - b  # depth[i, k] = 1 - beta_i(x_k)
        if math.isinf(spec.r):
            return np.ones((n, n), dtype=bool)
        own = depth[cells, np.arange(n)]
        return depth[cells] <= spec.r * own[:, None] + 1e-12
    if spec.family == "cs":
        b = bary_coords(spec.triangle, pts)
        cells = edge_cells(spec, pts)
        bm = np.asarray(spec.triangle.barycentric(spec.edge_partition().m))
        rho = spec.tau * b[cells, np.arange(n)] / bm[cells]
        out = np.ones((n, n), dtype=bool)
        for k in range(3):
            cond = bm[k] * rho[:, None] - b[k][:, None] + b[k][None, :] >= -1e-12
            out &= cond
        return out
    if spec.family == "spherical":
        anchors = as_points_array(spec.points)
        d_anch = np.sqrt(
            np.sum((pts[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
        )
        r = d_anch.min(axis=1)
        d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        out = d < r[:, None]
        np.fill_diagonal(out, True)
        return out
    if spec.family == "arcslice":
        t = spec.triangle
        anchors = as_points_array(t.vertices)
        d_anch = np.sqrt(np.sum((pts[:, None, :] - anchors[None, :, :]) ** 2, axis=2))
        r = d_anch.min(axis=1)
        d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        out = d <= r[:, None] + 1e-12
        return out
    raise ValueError(f"unknown proximity family {spec.family!r}")
