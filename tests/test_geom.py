import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcatch import (
    BasicTriangleParams,
    ConvexPolygon,
    HalfPlane,
    Point2,
    SimilarityTransform,
    Triangle,
    center,
    equilateral_area_scale,
    equilateral_triangle,
    from_equilateral,
    to_basic,
    to_equilateral,
)
from proxcatch.geom import (
    convex_hull,
    orient2,
    parallel_line_through,
    point_line_distance,
    triangle_polygon,
)

from conftest import random_triangle

SQRT3 = math.sqrt(3.0)


def _reference_clip(poly: ConvexPolygon, hp: HalfPlane, eps: float = 1e-9) -> ConvexPolygon:
    """Sutherland-Hodgman without the kept-everything shortcut."""
    v = poly.vertices
    if len(v) <= 1:
        return poly.clip(hp, eps)
    out = []
    prev = v[-1]
    d_prev = hp.signed_dist(prev)
    for cur in v:
        d_cur = hp.signed_dist(cur)
        if d_cur <= eps:
            if d_prev > eps:
                s = d_prev / (d_prev - d_cur)
                out.append(Point2(prev[0] + s * (cur[0] - prev[0]), prev[1] + s * (cur[1] - prev[1])))
            out.append(cur)
        elif d_prev <= eps:
            s = d_prev / (d_prev - d_cur)
            out.append(Point2(prev[0] + s * (cur[0] - prev[0]), prev[1] + s * (cur[1] - prev[1])))
        prev, d_prev = cur, d_cur
    if len(v) == 2 and len(out) > 2:
        out = out[:2]
    return ConvexPolygon(out)


class TestSignedArea:
    def test_right_triangle(self):
        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0, 1))
        assert t.area() == pytest.approx(0.5)

    def test_equilateral(self, t_eq):
        assert t_eq.area() == pytest.approx(SQRT3 / 4.0)

    def test_degenerate_collinear_is_zero_and_rejected(self):
        assert orient2(Point2(0, 0), Point2(1, 1), Point2(2, 2)) == 0.0
        with pytest.raises(ValueError):
            Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))

    def test_cw_input_normalized_to_ccw(self):
        t = Triangle(Point2(0, 0), Point2(0, 1), Point2(1, 0))
        assert t.area() > 0


class TestToBasic:
    def test_equilateral_side_two(self):
        t = Triangle(Point2(0, 0), Point2(2, 0), Point2(1, SQRT3))
        params, _ = to_basic(t)
        assert params.c1 == pytest.approx(0.5, abs=1e-12)
        assert params.c2 == pytest.approx(SQRT3 / 2.0, abs=1e-12)

    def test_frozen_oracle_triangle(self):
        # Oracle (law of cosines, independent of the transform code): the
        # longest edge of ((0,0),(2,0),(0.6,1.6)) is the one of length
        # sqrt(4.52) between (2,0) and (0.6,1.6); scaling it to 1 puts the
        # apex at exactly (43/113, 80/113).
        t = Triangle(Point2(0, 0), Point2(2, 0), Point2(0.6, 1.6))
        params, xf = to_basic(t)
        assert params.c1 == pytest.approx(43.0 / 113.0, abs=1e-12)
        assert params.c2 == pytest.approx(80.0 / 113.0, abs=1e-12)
        assert params.is_normalized()

    def test_basic_triangle_is_fixed_point(self):
        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0.38, 0.71))
        params, xf = to_basic(t)
        assert params.c1 == pytest.approx(0.38, abs=1e-12)
        assert params.c2 == pytest.approx(0.71, abs=1e-12)
        for v in t.vertices:
            w = xf.apply(v)
            assert math.dist(v, w) < 1e-12

    def test_transform_reproduces_basic_vertices(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            t = random_triangle(rng)
            params, xf = to_basic(t)
            assert 0.0 < params.c1 <= 0.5 + 1e-12
            assert params.c2 > 0.0
            assert params.is_normalized()
            got = sorted(tuple(xf.apply(v)) for v in t.vertices)
            want = sorted([(0.0, 0.0), (1.0, 0.0), (params.c1, params.c2)])
            for g, w in zip(got, want):
                assert math.dist(g, w) < 1e-10

    def test_tie_break_deterministic(self):
        # isoceles: two edges share the longest length
        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0.5, 2.0))
        p1, _ = to_basic(t)
        p2, _ = to_basic(Triangle(Point2(0.5, 2.0), Point2(1, 0), Point2(0, 0)))
        assert p1.c1 == pytest.approx(p2.c1) and p1.c2 == pytest.approx(p2.c2)

    def test_similarity_invariance_of_shape(self):
        # the normalized shape parameters are invariant under any similarity
        # (rotation, scaling, reflection, translation) of the input
        rng = np.random.default_rng(11)
        for _ in range(40):
            t = random_triangle(rng)
            base, _ = to_basic(t)
            ang = rng.uniform(0, 2 * math.pi)
            s = rng.uniform(0.2, 5.0)
            refl = -1.0 if rng.random() < 0.5 else 1.0
            xf = SimilarityTransform(
                s * math.cos(ang),
                -s * math.sin(ang) * refl,
                s * math.sin(ang),
                s * math.cos(ang) * refl,
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
            )
            moved = Triangle(*(xf.apply(v) for v in t.vertices))
            params, _ = to_basic(moved)
            assert params.c1 == pytest.approx(base.c1, abs=1e-9)
            assert params.c2 == pytest.approx(base.c2, abs=1e-9)


class TestBasicParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BasicTriangleParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BasicTriangleParams(0.6, 1.0)
        with pytest.raises(ValueError):
            BasicTriangleParams(0.3, 0.0)

    def test_acceptance_context_allowed_but_not_normalized(self):
        # (0.3, 0.8) has its longest edge off the base; still usable as a context
        p = BasicTriangleParams(0.3, 0.8)
        assert not p.is_normalized()


class TestEquilateralMap:
    def test_vertex_images(self, params_basic):
        assert to_equilateral(Point2(0, 0), params_basic) == Point2(0.0, 0.0)
        assert to_equilateral(Point2(1, 0), params_basic) == Point2(1.0, 0.0)
        apex = to_equilateral(Point2(0.3, 0.8), params_basic)
        assert apex.x == pytest.approx(0.5)
        assert apex.y == pytest.approx(SQRT3 / 2.0)

    def test_inverse_of_apex(self, params_basic):
        p = from_equilateral(Point2(0.5, SQRT3 / 2.0), params_basic)
        assert p.x == pytest.approx(0.3)
        assert p.y == pytest.approx(0.8)

    def test_round_trip_bulk(self, params_basic):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, size=(10_000, 2))
        for x, y in pts[:: len(pts) // 200]:
            p = Point2(x, y)
            q = from_equilateral(to_equilateral(p, params_basic), params_basic)
            assert math.dist(p, q) < 1e-10

    def test_matches_affine_map_from_vertex_images(self, params_basic):
        # oracle: the affine map is uniquely determined by the three vertex
        # images (0,0)->(0,0), (1,0)->(1,0), (c1,c2)->(1/2, sqrt3/2)
        c1, c2 = params_basic.c1, params_basic.c2
        src = np.array([[0, 0, 1], [1, 0, 1], [c1, c2, 1]], dtype=float)
        dst = np.array([[0, 0], [1, 0], [0.5, SQRT3 / 2]], dtype=float)
        coef = np.linalg.solve(src, dst)  # rows act on (x, y, 1)
        rng = np.random.default_rng(8)
        for x, y in rng.uniform(-3, 3, size=(200, 2)):
            expected = np.array([x, y, 1.0]) @ coef
            got = to_equilateral(Point2(x, y), params_basic)
            assert math.dist(got, Point2(*expected)) < 1e-10

    def test_area_scale(self, params_eq, params_basic):
        assert equilateral_area_scale(params_eq) == pytest.approx(1.0)
        assert equilateral_area_scale(params_basic) == pytest.approx(1.6 / SQRT3)

    @given(
        c1=st.floats(0.05, 0.5),
        c2=st.floats(0.1, 1.0),
        x=st.floats(-2, 2),
        y=st.floats(-2, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, c1, c2, x, y):
        params = BasicTriangleParams(c1, c2)
        p = Point2(x, y)
        q = from_equilateral(to_equilateral(p, params), params)
        assert math.dist(p, q) < 1e-9


class TestCenters:
    def test_centroid_equilateral(self, t_eq):
        m = center(t_eq, "centroid")
        assert m.x == pytest.approx(0.5)
        assert m.y == pytest.approx(SQRT3 / 6.0)

    def test_circumcenter_equilateral_equals_centroid(self, t_eq):
        cc = center(t_eq, "circumcenter")
        assert math.dist(cc, center(t_eq, "centroid")) < 1e-12

    def test_incenter_right_triangle(self):
        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0, 1))
        inc = center(t, "incenter")
        # oracle: equidistant from all three edges
        d = [point_line_distance(inc, *t.edge(i)) for i in range(3)]
        assert d[0] == pytest.approx(d[1], abs=1e-12)
        assert d[1] == pytest.approx(d[2], abs=1e-12)
        assert inc.x == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))
        assert inc.y == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))

    def test_circumcenter_equidistant_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = random_triangle(rng)
            cc = center(t, "circumcenter")
            d = [math.dist(cc, v) for v in t.vertices]
            assert max(d) - min(d) < 1e-9

    def test_custom_center_on_vertex_rejected(self, t_eq):
        with pytest.raises(ValueError):
            center(t_eq, Point2(0.0, 0.0))

    def test_unknown_selector(self, t_eq):
        with pytest.raises(ValueError):
            center(t_eq, "orthocenter")


class TestSimilarityTransform:
    def test_rejects_non_similarity(self):
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, 0.0, 0.0, 2.0, 0.0, 0.0)

    def test_inverse(self):
        xf = SimilarityTransform(0.0, -2.0, 2.0, 0.0, 1.0, -1.0)
        p = Point2(0.3, 0.7)
        assert math.dist(xf.inverse().apply(xf.apply(p)), p) < 1e-12


class TestClipping:
    def test_clip_keeps_triangle(self, t_eq):
        poly = triangle_polygon(t_eq)
        clipped = poly.clip(HalfPlane.from_coeffs(0.0, -1.0, 0.0))  # y >= 0
        assert clipped.equals(poly)

    def test_clip_square(self):
        sq = ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])
        clipped = sq.clip(HalfPlane.from_coeffs(1.0, 0.0, 0.5))  # x <= 0.5
        assert clipped.area() == pytest.approx(0.5)

    def test_tangent_clip_leaves_single_point(self, t_eq):
        poly = triangle_polygon(t_eq)
        clipped = poly.clip(HalfPlane.from_coeffs(0.0, -1.0, -SQRT3 / 2.0))  # y >= sqrt3/2
        assert clipped.area() == pytest.approx(0.0, abs=1e-15)
        assert clipped.contains(Point2(0.5, SQRT3 / 2.0), 1e-6)

    def test_clip_holding_every_vertex_returns_same_polygon(self, t_eq):
        poly = triangle_polygon(t_eq).clip(HalfPlane.from_coeffs(0.0, 1.0, 0.5))
        assert poly.clip(HalfPlane.from_coeffs(0.0, 1.0, 0.6)) is poly
        # a vertex within eps outside the boundary still counts as held
        assert poly.clip(HalfPlane.from_coeffs(0.0, 1.0, 0.5 - 5e-10)) is poly

    def test_clip_rebuilds_flipped_sliver(self):
        # a collinear sliver whose stored shoelace sum rounds below zero in
        # both orders: rebuilding reverses it again, and the clip still does
        pts = [
            (0.01106784498641128, 0.26953542192538626),
            (-0.02683687081155242, 0.17979677255247906),
            (-0.11901375880500908, -0.038430148763071936),
            (-0.20391437380142263, -0.23943064066272735),
        ]
        sliver = ConvexPolygon([Point2(*p) for p in pts])
        rebuilt = ConvexPolygon(sliver.vertices)
        assert rebuilt.vertices != sliver.vertices
        assert sliver.clip(HalfPlane(1.0, 0.0, 10.0)).vertices == rebuilt.vertices

    def test_clip_matches_reference_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            t = random_triangle(rng)
            poly = triangle_polygon(t)
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(0.0, 2.0 * math.pi)
                nx, ny = math.cos(a), math.sin(a)
                v = poly.vertices[int(rng.integers(len(poly)))] if len(poly) else Point2(0.0, 0.0)
                c = nx * v[0] + ny * v[1] + float(rng.choice([0.0, 1e-10, -1e-10, rng.uniform(-1, 1)]))
                hp = HalfPlane(nx, ny, c)
                assert poly.clip(hp).vertices == _reference_clip(poly, hp).vertices
                poly = poly.clip(hp)

    def test_complementary_clips_partition_area(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = random_triangle(rng)
            poly = triangle_polygon(t)
            a, b, c = rng.normal(size=3)
            if math.hypot(a, b) < 1e-3:
                continue
            hp = HalfPlane.from_coeffs(a, b, c)
            hp_op = HalfPlane(-hp.nx, -hp.ny, -hp.c)
            a1 = poly.clip(hp).area()
            a2 = poly.clip(hp_op).area()
            assert a1 <= poly.area() + 1e-12
            assert a1 + a2 == pytest.approx(poly.area(), abs=1e-10)

    @given(
        cx=st.floats(-1, 2),
        cy=st.floats(-1, 2),
        ang=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_clip_never_grows(self, cx, cy, ang):
        poly = triangle_polygon(equilateral_triangle())
        hp = HalfPlane.from_coeffs(math.cos(ang), math.sin(ang), cx * math.cos(ang) + cy * math.sin(ang))
        assert poly.clip(hp).area() <= poly.area() + 1e-12


class TestPolygonBasics:
    def test_equality_up_to_rotation(self):
        p1 = ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])
        p2 = ConvexPolygon([Point2(1, 1), Point2(0, 1), Point2(0, 0), Point2(1, 0)])
        assert p1.equals(p2)
        p3 = ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 1)])
        assert not p1.equals(p3)

    def test_contains_and_distance(self):
        sq = ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])
        assert sq.contains(Point2(0.5, 0.5))
        assert not sq.contains(Point2(1.5, 0.5))
        assert sq.distance(Point2(1.5, 0.5)) == pytest.approx(0.5)
        assert sq.distance(Point2(0.25, 0.25)) == 0.0

    def test_empty_and_point(self):
        assert ConvexPolygon().is_empty
        p = ConvexPolygon([Point2(1, 2)])
        assert p.is_point and p.area() == 0.0

    def test_hull(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1), Point2(0.5, 0.5)]
        h = convex_hull(pts)
        assert h.area() == pytest.approx(1.0)
        assert len(h) == 4

    def test_hull_survives_micro_duplicates(self):
        # regression: near-duplicate inputs (differing at 1e-16) must not
        # masquerade as collinear triples and knock out true hull corners
        pts = [
            Point2(0.0, 0.0),
            Point2(1.0, 0.0),
            Point2(1.0 + 1e-16, 0.0),
            Point2(1.0, 1.0),
            Point2(1.0 + 1e-16, 1.0 - 1e-16),
            Point2(0.0, 1.0),
        ]
        h = convex_hull(pts)
        assert h.area() == pytest.approx(1.0, abs=1e-9)
        assert len(h) == 4

    def test_parallel_line(self):
        line = parallel_line_through(Point2(0, 1), Point2(0, 0), Point2(2, 0))
        assert line.point == Point2(0, 1)
        assert line.direction.y == 0.0

    def test_point_line_distance(self):
        assert point_line_distance(Point2(0, 2), Point2(-1, 0), Point2(5, 0)) == pytest.approx(2.0)


class TestUniformityPreservation:
    def test_chi_square_64_cells(self, params_basic, t_eq):
        from proxcatch.sim import CHI2_CRIT_99_DOF63, chi_square_uniform_triangle, rng_for, sample_uniform_triangle

        pts = sample_uniform_triangle(100_000, params_basic.triangle(), rng_for(123456, 100_000, 0))
        # vectorized to_equilateral (formula itself is pinned by the vertex-image oracle)
        mapped = np.column_stack(
            [
                pts[:, 0] + (1 - 2 * params_basic.c1) / (2 * params_basic.c2) * pts[:, 1],
                SQRT3 / (2 * params_basic.c2) * pts[:, 1],
            ]
        )
        stat, dof = chi_square_uniform_triangle(mapped, t_eq)
        assert dof == 63
        assert stat < CHI2_CRIT_99_DOF63
