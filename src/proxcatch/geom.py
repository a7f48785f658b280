"""Planar primitives: points, triangles, normalization transforms, convex polygons.

Everything here is pure and immutable.  Coordinates are plain floats; all
predicates use the absolute tolerance ``EPS`` under the convention that the
caller works at roughly unit scale (triangles are normalized first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

EPS = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


# A center selector is either one of the named centers or an explicit point.
CENTROID = "centroid"
CIRCUMCENTER = "circumcenter"
INCENTER = "incenter"
CenterSelector = Union[str, Point2]

_NAMED_CENTERS = (CENTROID, CIRCUMCENTER, INCENTER)


def orient2(a: Point2, b: Point2, c: Point2) -> float:
    """Twice the signed area of (a, b, c); positive for a CCW turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _check_finite(p: Sequence[float]) -> None:
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"non-finite coordinate: {p!r}")


@dataclass(frozen=True)
class Triangle:
    """A nondegenerate triangle, stored counter-clockwise.

    A clockwise input is flipped (v2 and v3 swap) so that edge/vertex indices
    are always taken with respect to the CCW order.  Edge i is the edge
    opposite vertex i (0-based).
    """

    v1: Point2
    v2: Point2
    v3: Point2

    def __post_init__(self) -> None:
        vs = []
        for v in (self.v1, self.v2, self.v3):
            _check_finite(v)
            vs.append(Point2(float(v[0]), float(v[1])))
        area2 = orient2(*vs)
        scale = max(abs(c) for v in vs for c in v) or 1.0
        if abs(area2) <= EPS * max(1.0, scale * scale):
            raise ValueError("degenerate (collinear) triangle")
        if area2 < 0:
            vs[1], vs[2] = vs[2], vs[1]
        object.__setattr__(self, "v1", vs[0])
        object.__setattr__(self, "v2", vs[1])
        object.__setattr__(self, "v3", vs[2])

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.v1, self.v2, self.v3)

    def edge(self, i: int) -> tuple[Point2, Point2]:
        """Endpoints of the edge opposite vertex i."""
        vs = self.vertices
        return vs[(i + 1) % 3], vs[(i + 2) % 3]

    def area(self) -> float:
        return 0.5 * orient2(*self.vertices)

    def barycentric(self, p: Point2) -> tuple[float, float, float]:
        a2 = orient2(*self.vertices)
        vs = self.vertices
        return tuple(
            orient2(p, vs[(i + 1) % 3], vs[(i + 2) % 3]) / a2 for i in range(3)
        )  # type: ignore[return-value]

    def point_at(self, b: Sequence[float]) -> Point2:
        vs = self.vertices
        return Point2(
            b[0] * vs[0][0] + b[1] * vs[1][0] + b[2] * vs[2][0],
            b[0] * vs[0][1] + b[1] * vs[1][1] + b[2] * vs[2][1],
        )

    def contains(self, p: Point2, eps: float = EPS) -> bool:
        return all(b >= -eps for b in self.barycentric(p))

    def edge_height(self, i: int) -> float:
        """Distance from vertex i to the supporting line of edge i."""
        a, b = self.edge(i)
        return point_line_distance(self.vertices[i], a, b)

    @cached_property
    def _barycentric_coeffs(self) -> tuple[tuple[float, float, float], ...]:
        vs = self.vertices
        a2 = orient2(*vs)
        rows = []
        for i in range(3):
            q, r = vs[(i + 1) % 3], vs[(i + 2) % 3]
            rows.append(((q[1] - r[1]) / a2, (r[0] - q[0]) / a2, (q[0] * r[1] - q[1] * r[0]) / a2))
        return tuple(rows)


def equilateral_triangle() -> Triangle:
    return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, math.sqrt(3.0) / 2.0))


@dataclass(frozen=True)
class BasicTriangleParams:
    """Apex coordinates (c1, c2) of a triangle ((0,0), (1,0), (c1, c2)).

    Only 0 < c1 <= 1/2 and c2 > 0 are enforced.  Output of :func:`to_basic`
    additionally has the base as the longest edge ((1-c1)^2 + c2^2 <= 1, see
    :meth:`is_normalized`); parameters violating that are still accepted so
    that any apex-on-the-left triangle can be used as a simulation context.
    """

    c1: float
    c2: float

    def __post_init__(self) -> None:
        _check_finite((self.c1, self.c2))
        if not (0.0 < self.c1 <= 0.5 + EPS):
            raise ValueError(f"c1 must be in (0, 1/2], got {self.c1}")
        if not self.c2 > 0.0:
            raise ValueError(f"c2 must be positive, got {self.c2}")

    def is_normalized(self) -> bool:
        return (1.0 - self.c1) ** 2 + self.c2**2 <= 1.0 + 1e-12

    def triangle(self) -> Triangle:
        return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(self.c1, self.c2))


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> L p + t with L a nonzero scalar multiple of an orthogonal matrix."""

    m11: float
    m12: float
    m21: float
    m22: float
    tx: float
    ty: float

    def __post_init__(self) -> None:
        r1 = math.hypot(self.m11, self.m12)
        r2 = math.hypot(self.m21, self.m22)
        dot = self.m11 * self.m21 + self.m12 * self.m22
        if r1 <= EPS or r2 <= EPS:
            raise ValueError("transform is singular")
        if abs(r1 - r2) > 1e-9 * max(r1, r2) or abs(dot) > 1e-9 * r1 * r2:
            raise ValueError("linear part is not a similarity")

    @staticmethod
    def identity() -> "SimilarityTransform":
        return SimilarityTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def apply(self, p: Point2) -> Point2:
        return Point2(
            self.m11 * p[0] + self.m12 * p[1] + self.tx,
            self.m21 * p[0] + self.m22 * p[1] + self.ty,
        )

    def scale(self) -> float:
        return math.hypot(self.m11, self.m12)

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "SimilarityTransform":
        d = self.det()
        i11, i12 = self.m22 / d, -self.m12 / d
        i21, i22 = -self.m21 / d, self.m11 / d
        return SimilarityTransform(
            i11, i12, i21, i22, -(i11 * self.tx + i12 * self.ty), -(i21 * self.tx + i22 * self.ty)
        )


def _edge_key(a: Point2, b: Point2) -> tuple:
    return tuple(sorted([tuple(a), tuple(b)]))


def to_basic(t: Triangle) -> tuple[BasicTriangleParams, SimilarityTransform]:
    """Normalize a triangle: longest edge onto [0,1] x {0}, apex x <= 1/2.

    Returns the apex parameters and the forward transform (a similarity,
    reflections allowed).  When two edges tie for longest, the edge with the
    lexicographically smallest vertex pair is chosen, for determinism.
    """
    vs = t.vertices
    edges = []
    for i in range(3):
        a, b = t.edge(i)
        length = math.hypot(b[0] - a[0], b[1] - a[1])
        edges.append((-length, _edge_key(a, b), i))
    edges.sort()
    longest = edges[0][2]
    length = -edges[0][0]
    p, q = t.edge(longest)
    apex = vs[longest]
    # Candidate frames: either endpoint of the longest edge at the origin.
    best = None
    for origin, other in ((p, q), (q, p)):
        ux = (other[0] - origin[0]) / length
        uy = (other[1] - origin[1]) / length
        # rotate+scale so that `other` maps to (1, 0)
        m11, m12 = ux / length, uy / length
        m21, m22 = -uy / length, ux / length
        ax = m11 * (apex[0] - origin[0]) + m12 * (apex[1] - origin[1])
        ay = m21 * (apex[0] - origin[0]) + m22 * (apex[1] - origin[1])
        if ay < 0:  # reflect across the x-axis
            m21, m22, ay = -m21, -m22, -ay
        if ax > 0.5 + EPS:
            continue
        cand = (ax, ay, m11, m12, m21, m22, origin)
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:  # apex exactly at x = 1/2 from both ends, take either
        raise AssertionError("unreachable: some frame places the apex at x <= 1/2")
    ax, ay, m11, m12, m21, m22, origin = best
    tx = -(m11 * origin[0] + m12 * origin[1])
    ty = -(m21 * origin[0] + m22 * origin[1])
    params = BasicTriangleParams(min(ax, 0.5), ay)
    return params, SimilarityTransform(m11, m12, m21, m22, tx, ty)


_SQRT3 = math.sqrt(3.0)


def to_equilateral(p: Point2, params: BasicTriangleParams) -> Point2:
    """The uniformity-preserving affine map from ((0,0),(1,0),(c1,c2)) onto
    the unit equilateral triangle: (0,0) and (1,0) stay put, the apex goes to
    (1/2, sqrt(3)/2)."""
    u = p[0] + (1.0 - 2.0 * params.c1) / (2.0 * params.c2) * p[1]
    v = _SQRT3 / (2.0 * params.c2) * p[1]
    return Point2(u, v)


def from_equilateral(p: Point2, params: BasicTriangleParams) -> Point2:
    x = p[0] - (1.0 - 2.0 * params.c1) / _SQRT3 * p[1]
    y = 2.0 * params.c2 / _SQRT3 * p[1]
    return Point2(x, y)


def equilateral_area_scale(params: BasicTriangleParams) -> float:
    """Jacobian determinant of :func:`from_equilateral`: constant 2*c2/sqrt(3)."""
    return 2.0 * params.c2 / _SQRT3


def center(t: Triangle, sel: CenterSelector) -> Point2:
    """Resolve a center selector to a concrete point."""
    if isinstance(sel, str):
        if sel == CENTROID:
            vs = t.vertices
            return Point2(
                (vs[0][0] + vs[1][0] + vs[2][0]) / 3.0,
                (vs[0][1] + vs[1][1] + vs[2][1]) / 3.0,
            )
        if sel == CIRCUMCENTER:
            return _circumcenter(t)
        if sel == INCENTER:
            return _incenter(t)
        raise ValueError(f"unknown center selector {sel!r}; expected one of {_NAMED_CENTERS}")
    p = Point2(float(sel[0]), float(sel[1]))
    _check_finite(p)
    if any(math.hypot(p[0] - v[0], p[1] - v[1]) <= EPS for v in t.vertices):
        raise ValueError("custom center coincides with a triangle vertex")
    return p


def _circumcenter(t: Triangle) -> Point2:
    (ax, ay), (bx, by), (cx, cy) = t.vertices
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(v) for p in t.vertices for v in p) or 1.0
    if abs(d) <= 1e-12 * max(1.0, scale * scale):
        raise ValueError("circumcenter of a near-degenerate triangle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    if not (math.isfinite(ux) and math.isfinite(uy)):
        raise ValueError("circumcenter overflow")
    return Point2(ux, uy)


def _incenter(t: Triangle) -> Point2:
    vs = t.vertices
    w = []
    for i in range(3):
        a, b = t.edge(i)
        w.append(math.hypot(b[0] - a[0], b[1] - a[1]))  # length of the side opposite vertex i
    s = w[0] + w[1] + w[2]
    return Point2(
        (w[0] * vs[0][0] + w[1] * vs[1][0] + w[2] * vs[2][0]) / s,
        (w[0] * vs[0][1] + w[1] * vs[1][1] + w[2] * vs[2][1]) / s,
    )


def point_line_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from p to the infinite line through a and b."""
    L = math.hypot(b[0] - a[0], b[1] - a[1])
    if L <= EPS:
        raise ValueError("line defined by coincident points")
    return abs(orient2(a, b, p)) / L


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    if L2 <= EPS * EPS:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    s = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / L2
    s = min(1.0, max(0.0, s))
    return math.hypot(p[0] - a[0] - s * dx, p[1] - a[1] - s * dy)


class Line(NamedTuple):
    point: Point2
    direction: Point2  # not necessarily unit length


def parallel_line_through(p: Point2, a: Point2, b: Point2) -> Line:
    """The line through p parallel to the line a-b."""
    d = Point2(b[0] - a[0], b[1] - a[1])
    if math.hypot(*d) <= EPS:
        raise ValueError("line defined by coincident points")
    return Line(Point2(*p), d)


@dataclass(frozen=True)
class HalfPlane:
    """The closed half-plane {p : nx*x + ny*y <= c} with (nx, ny) unit length."""

    nx: float
    ny: float
    c: float

    @staticmethod
    def from_coeffs(a: float, b: float, c: float) -> "HalfPlane":
        norm = math.hypot(a, b)
        if norm <= EPS:
            raise ValueError("half-plane with a vanishing normal")
        return HalfPlane(a / norm, b / norm, c / norm)

    @staticmethod
    def boundary_through(a: Point2, b: Point2, keep: Point2) -> "HalfPlane":
        """Half-plane bounded by the line a-b that contains `keep`."""
        nx, ny = b[1] - a[1], -(b[0] - a[0])  # normal to a->b
        c = nx * a[0] + ny * a[1]
        hp = HalfPlane.from_coeffs(nx, ny, c)
        if hp.signed_dist(keep) > 0:
            hp = HalfPlane(-hp.nx, -hp.ny, -hp.c)
        return hp

    def signed_dist(self, p: Point2) -> float:
        return self.nx * p[0] + self.ny * p[1] - self.c

    def contains(self, p: Point2, eps: float = EPS) -> bool:
        return self.signed_dist(p) <= eps


class ConvexPolygon:
    """An immutable convex polygon; may be empty or degenerate (point/segment).

    Vertices are stored CCW with near-duplicate consecutive vertices removed.
    Equality is geometric: vertex-set Hausdorff distance within a tolerance.
    """

    __slots__ = ("_v",)

    def __init__(self, vertices: Iterable[Point2] = ()):
        cleaned: list[Point2] = []
        for p in vertices:
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                _check_finite(Point2(x, y))
            if cleaned:
                last = cleaned[-1]
                if math.hypot(x - last[0], y - last[1]) <= EPS:
                    continue
            cleaned.append(Point2(x, y))
        while len(cleaned) > 1 and math.hypot(
            cleaned[0][0] - cleaned[-1][0], cleaned[0][1] - cleaned[-1][1]
        ) <= EPS:
            cleaned.pop()
        if len(cleaned) >= 3 and _poly_area2(cleaned) < 0:
            cleaned.reverse()
        self._v = tuple(cleaned)

    @property
    def vertices(self) -> tuple[Point2, ...]:
        return self._v

    @property
    def is_empty(self) -> bool:
        return len(self._v) == 0

    @property
    def is_point(self) -> bool:
        return len(self._v) == 1

    def __len__(self) -> int:
        return len(self._v)

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self._v)!r})"

    def area(self) -> float:
        if len(self._v) < 3:
            return 0.0
        return 0.5 * _poly_area2(self._v)

    def contains(self, p: Point2, eps: float = EPS) -> bool:
        v = self._v
        if not v:
            return False
        if len(v) == 1:
            return math.hypot(p[0] - v[0][0], p[1] - v[0][1]) <= eps
        if len(v) == 2:
            return point_segment_distance(p, v[0], v[1]) <= eps
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            L = math.hypot(b[0] - a[0], b[1] - a[1])
            if orient2(a, b, p) < -eps * L:
                return False
        return True

    def distance(self, p: Point2) -> float:
        """Distance from p to the polygon as a closed set (0 inside)."""
        v = self._v
        if not v:
            return math.inf
        if len(v) >= 3 and self.contains(p, 0.0):
            return 0.0
        return self.boundary_distance(p)

    def boundary_distance(self, p: Point2) -> float:
        """Distance from p to the polygon boundary (positive also inside)."""
        v = self._v
        if not v:
            return math.inf
        if len(v) == 1:
            return math.hypot(p[0] - v[0][0], p[1] - v[0][1])
        return min(
            point_segment_distance(p, v[i], v[(i + 1) % len(v)]) for i in range(len(v))
        )

    def clip(self, hp: HalfPlane, eps: float = EPS) -> "ConvexPolygon":
        """Sutherland-Hodgman clip against one half-plane; never grows the area."""
        v = self._v
        if not v:
            return self
        if len(v) == 1:
            return self if hp.contains(v[0], eps) else ConvexPolygon()
        nx, ny, c = hp.nx, hp.ny, hp.c
        ds = [nx * p[0] + ny * p[1] - c for p in v]  # hp.signed_dist
        # Every vertex kept: a rebuild would return the same vertices, unless
        # it flips a sliver whose shoelace sum rounds below zero.
        if all(d <= eps for d in ds) and (len(v) < 3 or _poly_area2(v) >= 0.0):
            return self
        out: list[Point2] = []
        prev, d_prev = v[-1], ds[-1]
        for cur, d_cur in zip(v, ds):
            if d_cur <= eps:
                if d_prev > eps:
                    out.append(_cross_point(prev, cur, d_prev, d_cur))
                out.append(cur)
            elif d_prev <= eps:
                out.append(_cross_point(prev, cur, d_prev, d_cur))
            prev, d_prev = cur, d_cur
        if len(v) == 2 and len(out) > 2:  # a clipped segment stays a segment
            out = out[:2]
        return ConvexPolygon(out)

    def equals(self, other: "ConvexPolygon", tol: float = 1e-8) -> bool:
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        d1 = max(other.distance(p) for p in self._v)
        d2 = max(self.distance(p) for p in other._v)
        return max(d1, d2) <= tol

    def simplified(self, eps: float = EPS) -> "ConvexPolygon":
        """Drop vertices collinear with their neighbours."""
        v = self._v
        if len(v) < 3:
            return self
        keep = []
        for i in range(len(v)):
            a, b, c = v[i - 1], v[i], v[(i + 1) % len(v)]
            L = math.hypot(c[0] - a[0], c[1] - a[1]) or 1.0
            if abs(orient2(a, b, c)) > eps * L:
                keep.append(b)
        return ConvexPolygon(keep)


def _poly_area2(v: Sequence[Point2]) -> float:
    s = 0.0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        s += a[0] * b[1] - b[0] * a[1]
    return s


def _cross_point(a: Point2, b: Point2, da: float, db: float) -> Point2:
    t = da / (da - db)
    return Point2(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Monotone-chain convex hull (collinear points dropped).

    Points within EPS of an already-kept point are merged first: micro
    duplicates from independent clip paths would otherwise masquerade as
    collinear triples and knock out true hull vertices.
    """
    raw = sorted({(float(p[0]), float(p[1])) for p in points})
    pts: list[tuple[float, float]] = []
    for p in raw:
        if any(math.hypot(p[0] - q[0], p[1] - q[1]) <= EPS for q in pts):
            continue
        pts.append(p)
    if len(pts) <= 2:
        return ConvexPolygon([Point2(*p) for p in pts])
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and orient2(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient2(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return ConvexPolygon([Point2(*p) for p in lower[:-1] + upper[:-1]])


def triangle_polygon(t: Triangle) -> ConvexPolygon:
    return ConvexPolygon(t.vertices)


def barycentric_coeffs(t: Triangle) -> tuple[tuple[float, float, float], ...]:
    """Affine forms (a, b, c) with beta_i(p) = a*p.x + b*p.y + c, i = 0..2
    (computed once per triangle)."""
    return t._barycentric_coeffs
