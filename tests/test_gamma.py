import math
import re
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcatch import (
    Point2,
    ProximityMapSpec,
    center,
    edge_extrema,
    eta_value,
    eta_value_interval,
    gamma1_grid_area,
    gamma1_interval_1d,
    gamma1_point,
    gamma1_set,
    gamma1_via_extrema,
    gamma2_rectangles_1d,
    gamma_k_membership,
    superset_region,
)
import proxcatch.gamma as gm
from proxcatch.gamma import Gamma1Region, covers, gamma1_from_extrema, gamma1_predicate_mask
from proxcatch.geom import equilateral_triangle
from proxcatch.proximity import contains
from proxcatch.regions import _cevian_foot, core_triangle
from proxcatch.sim import rng_for, sample_uniform_triangle

from conftest import random_interior_point, random_triangle
from reference_gamma import reference_eta_pe


SQRT3 = math.sqrt(3.0)


def draw_sample(t, n, rng):
    return [Point2(*p) for p in sample_uniform_triangle(n, t, rng)]


class TestGamma1Point:
    def test_vertex_singleton_pe(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        g = gamma1_point(spec, Point2(0.0, 0.0))
        assert g.point == Point2(0.0, 0.0)
        assert g.area() == 0.0

    def test_r_infinity_whole_triangle(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, math.inf)
        g = gamma1_point(spec, Point2(0.4, 0.3))
        assert g.area() == pytest.approx(t_eq.area())

    def test_self_membership(self, t_eq):
        rng = np.random.default_rng(1)
        for spec in (ProximityMapSpec.pe(t_eq, 1.4), ProximityMapSpec.cs(t_eq, 0.5)):
            for x in draw_sample(t_eq, 25, rng):
                assert gamma1_point(spec, x).contains(x, 1e-9)

    def test_grid_predicate_agreement_200(self, t_eq):
        # spec example: 200x200 grid membership agreement for a single point
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        x = Point2(0.55, 0.25)
        g = gamma1_point(spec, x)
        xs = np.linspace(0.001, 0.999, 200)
        ys = np.linspace(0.001, SQRT3 / 2 - 0.001, 200)
        gx, gy = np.meshgrid(xs, ys)
        zs = np.column_stack([gx.ravel(), gy.ravel()])
        bb = np.array([t_eq.barycentric(Point2(*z)) for z in zs[:0]])  # placeholder
        from proxcatch.proximity import bary_coords

        inside = np.all(bary_coords(t_eq, zs) >= 0, axis=0)
        zs = zs[inside]
        mask = gamma1_predicate_mask(spec, [x], zs)
        mism = 0
        for z, m in zip(zs, mask):
            zp = Point2(*z)
            if g.contains(zp, 1e-9) != m:
                d = min(
                    (p.boundary_distance(zp) for p in g.pieces if not p.is_empty),
                    default=np.inf,
                )
                if d > 1e-7:
                    mism += 1
        assert mism == 0

    def test_pe_hexagon_for_r_ge_2_centroid(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        rng = np.random.default_rng(2)
        for x in draw_sample(t_eq, 15, rng):
            merged = gamma1_point(spec, x).merged()
            assert merged is not None
            assert len(merged) == 6

    def test_outside_raises(self, t_eq):
        with pytest.raises(ValueError):
            gamma1_point(ProximityMapSpec.pe(t_eq, 2.0), Point2(2.0, 2.0))


class TestGamma1Set:
    def test_singleton_sample_equals_point(self, t_eq):
        rng = np.random.default_rng(3)
        for spec in (ProximityMapSpec.pe(t_eq, 1.6), ProximityMapSpec.cs(t_eq, 0.7)):
            x = draw_sample(t_eq, 1, rng)[0]
            assert gamma1_set(spec, [x]).equals(gamma1_point(spec, x))

    def test_vertex_sample_conventions(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        v = Point2(0.0, 0.0)
        assert gamma1_set(spec, [v]).point == v
        g = gamma1_set(spec, [v, Point2(0.5, 0.3)])
        assert g.is_empty

    def test_superset_region_always_included(self, t_eq, t_basic):
        rng = np.random.default_rng(4)
        for t in (t_eq, t_basic):
            for r in (1.7, 2.0, 3.0):
                spec = ProximityMapSpec.pe(t, r)
                rs = superset_region(spec)
                g = gamma1_set(spec, draw_sample(t, 40, rng))
                for piece in rs.pieces:
                    for w in (0.99, 0.5):
                        for v in piece.vertices:
                            cx = sum(q.x for q in piece.vertices) / len(piece)
                            cy = sum(q.y for q in piece.vertices) / len(piece)
                            z = Point2(w * v.x + (1 - w) * cx, w * v.y + (1 - w) * cy)
                            assert g.contains(z, 1e-7)

    def test_empty_for_deep_sample_with_core_center(self, t_eq):
        r = 1.2
        core = core_triangle(t_eq, r)
        m = Point2(
            sum(v.x for v in core.vertices) / 3.0, sum(v.y for v in core.vertices) / 3.0
        )
        spec = ProximityMapSpec.pe(t_eq, r, m)
        g = gamma1_set(spec, draw_sample(t_eq, 400, rng_for(55, 400, 0)))
        assert g.area() == pytest.approx(0.0, abs=1e-12)

    def test_monotone_nonincreasing(self, t_eq):
        rng = np.random.default_rng(5)
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = draw_sample(t_eq, 10, rng)
        g_old = gamma1_set(spec, sample)
        for _ in range(40):
            p = draw_sample(t_eq, 1, rng)[0]
            sample = sample + [p]
            g_new = gamma1_set(spec, sample)
            assert g_new.area() <= g_old.area() + 1e-12
            for piece in g_new.pieces:
                for v in piece.vertices:
                    assert g_old.contains(v, 1e-7)
            g_old = g_new

    def test_parameter_monotonicity(self, t_eq):
        rng = np.random.default_rng(6)
        sample = draw_sample(t_eq, 8, rng)
        g1 = gamma1_set(ProximityMapSpec.pe(t_eq, 1.5), sample)
        g2 = gamma1_set(ProximityMapSpec.pe(t_eq, 2.5), sample)
        for piece in g1.pieces:
            for v in piece.vertices:
                assert g2.contains(v, 1e-7)
        c1 = gamma1_set(ProximityMapSpec.cs(t_eq, 0.4), sample)
        c2 = gamma1_set(ProximityMapSpec.cs(t_eq, 0.9), sample)
        for piece in c1.pieces:
            for v in piece.vertices:
                assert c2.contains(v, 1e-7)

    def test_cs_tau_one_hexagon_contains_center(self, t_eq):
        spec = ProximityMapSpec.cs(t_eq, 1.0)
        rng = np.random.default_rng(7)
        m = center(t_eq, "centroid")
        for n in (1, 5, 20):
            g = gamma1_set(spec, draw_sample(t_eq, n, rng))
            assert g.contains(m, 1e-9)
            assert g.area() > 0
            merged = g.merged()
            assert merged is not None and len(merged) == 6

    def test_cs_zeta7_line_matches(self, t_eq):
        # the k = j constraint in the base-edge cell is the line y = w3/(1-tau)
        tau = 0.5
        spec = ProximityMapSpec.cs(t_eq, tau)
        x = Point2(0.5, 0.12)  # in the base-edge cell
        g = gamma1_point(spec, x)
        part = spec.edge_partition()
        base_cell = 2  # edge opposite vertex 2 is the base (0,0)-(1,0)
        piece = g.pieces[base_cell]
        y_cut = x.y / (1.0 - tau)
        tops = max(v.y for v in piece.vertices)
        assert tops == pytest.approx(y_cut, abs=1e-9)

    def test_cs_centroid_boundary_lines_cross_check(self):
        # cross-check the predicate-derived half-planes against the known
        # centroid closed forms of the boundary lines, for a point in the
        # base-edge cell of ((0,0),(1,0),(c1,c2)).  Five published lines match
        # verbatim; the sixth needs the scale factor restored on its x term
        # (its general-center form specializes to exactly that), and the line
        # bounding the depth of the second edge cell is beta_1(z) =
        # beta_1(x)/(1-tau), checked against the raw membership predicate.
        import proxcatch.gamma as gm
        from proxcatch import Triangle, contains
        from proxcatch.regions import locate

        c1, c2, tau = 0.4, 0.7, 0.45
        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(c1, c2))
        spec = ProximityMapSpec.cs(t, tau)
        x0, y0 = 0.5, 0.09
        x = Point2(x0, y0)
        assert locate(spec.edge_partition(), x) == 2  # base-edge cell
        cases = [
            (2, 1, lambda u: (y0 * c1 + c2 * (u - x0)) / (c1 + tau)),
            (2, 0, lambda u: (c2 * (x0 - u) + y0 * (1 - c1)) / (tau + 1 - c1)),
            (0, 2, lambda u: (c2 * tau * (1 - u) + y0) / (1 + tau * (1 - c1))),
            (0, 1, lambda u: (tau * c2 * (1 - u) + c2 * (x0 - u) - y0 * c1) / (tau * (1 - c1) - c1)),
            (2, 2, lambda u: y0 / (1 - tau)),
            (1, 2, lambda u: (tau * c2 * u + y0) / (1 + tau * c1)),
        ]
        for cell, k, zeta in cases:
            hp = gm._cs_halfplanes(spec, cell, x)[k]
            assert hp is not None
            for u in (0.1, 0.45, 0.8):
                assert abs(hp.signed_dist(Point2(u, zeta(u)))) < 1e-9, (cell, k, u)
        # the remaining constraint (depth of the second edge cell) is the line
        # beta_1(z) = beta_1(x)/(1-tau); derive it through the generic
        # barycentric evaluator as an independent route
        hp = gm._cs_halfplanes(spec, 1, x)[1]
        target = t.barycentric(x)[1] / (1.0 - tau)
        for u, v in ((0.2, 0.1), (0.6, 0.05), (0.4, 0.3)):
            b1 = t.barycentric(Point2(u, v))[1]
            # shift along x until beta_1 hits the target (x-gradient is 1 here)
            z = Point2(u + (target - b1), v)
            assert t.barycentric(z)[1] == pytest.approx(target, abs=1e-12)
            assert abs(hp.signed_dist(z)) < 1e-9
        # the published centroid display for this line matches no constraint
        zeta6 = lambda u: (
            c1 * (1 - c1) * y0
            + c1 * c2 * x0
            - c2 * (2 * tau * (1 - c1) + c1 * (1 - tau)) * u
            + tau * c2 * (1 - 2 * c1)
        ) / (c1 * (1 - c1) * (1 - tau))
        for cell in range(3):
            for hpk in gm._cs_halfplanes(spec, cell, x):
                if hpk is None or math.isinf(hpk.c):
                    continue
                errs = [abs(hpk.signed_dist(Point2(u, zeta6(u)))) for u in (0.13, 0.42, 0.77)]
                assert max(errs) > 1e-6


class TestEdgeExtrema:
    def test_single_point_all_edges(self, t_eq):
        ext = edge_extrema([Point2(0.4, 0.2)], t_eq)
        assert ext.indices == (0, 0, 0)
        assert ext.distinct_count == 1

    def test_distinct_parallels(self, t_eq):
        # three points, each clearly closest to a different edge
        pts = [Point2(0.83, 0.1), Point2(0.17, 0.1), Point2(0.5, 0.05)]
        ext = edge_extrema(pts, t_eq)
        assert ext.distinct_count == 3

    def test_base_distance_is_min_y(self, t_basic):
        rng = np.random.default_rng(8)
        pts = draw_sample(t_basic, 50, rng)
        ext = edge_extrema(pts, t_basic)
        assert ext.distances[2] == pytest.approx(min(p.y for p in pts))

    def test_tie_break_smallest_index(self, t_eq):
        p = Point2(0.5, 0.2)
        ext = edge_extrema([p, p], t_eq)  # exact tie on every edge
        assert ext.indices == (0, 0, 0)


class TestViaExtrema:
    @pytest.mark.parametrize("family", ["pe", "cs"])
    def test_equals_full_intersection(self, family, t_eq):
        rng = np.random.default_rng(9)
        for trial in range(40):
            if family == "pe":
                spec = ProximityMapSpec.pe(t_eq, float(rng.uniform(1.0, 3.5)))
            else:
                spec = ProximityMapSpec.cs(t_eq, float(rng.uniform(0.1, 1.0)))
            sample = draw_sample(t_eq, int(rng.integers(1, 15)), rng)
            assert gamma1_via_extrema(spec, sample).equals(gamma1_set(spec, sample))

    def test_two_point_collinear_pair(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = [Point2(0.3, 0.1), Point2(0.7, 0.1)]
        assert gamma1_via_extrema(spec, sample).equals(gamma1_set(spec, sample))


class TestEta:
    def test_n1(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        res = eta_value(spec, [Point2(0.5, 0.3)])
        assert res.eta == 1 and res.witness == (0,)

    def test_interval_analog(self):
        assert eta_value_interval([0.4]).eta == 1
        assert eta_value_interval([0.2, 0.6]).eta == 2
        assert eta_value_interval([0.2, 0.6, 0.4]).eta == 2
        assert eta_value_interval([0.3, 0.3]).eta == 1

    def test_three_distinct_extrema_eta3(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = [Point2(0.83, 0.1), Point2(0.17, 0.1), Point2(0.5, 0.05)]
        restricted = eta_value(spec, sample)
        exhaustive = eta_value(spec, sample, exhaustive=True)
        assert restricted.eta == exhaustive.eta == 3

    def test_restricted_equals_exhaustive_random(self, t_eq):
        rng = np.random.default_rng(10)
        for trial in range(25):
            spec = ProximityMapSpec.pe(t_eq, float(rng.uniform(1.2, 3.0)))
            sample = draw_sample(t_eq, int(rng.integers(2, 9)), rng)
            assert eta_value(spec, sample).eta == eta_value(spec, sample, exhaustive=True).eta

    def test_exhaustive_cap(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        with pytest.raises(ValueError):
            eta_value(spec, draw_sample(t_eq, 25, np.random.default_rng(0)), exhaustive=True)

    def test_vertex_sample_degenerate_region(self, t_eq):
        # a sample containing a triangle vertex has a singleton region;
        # the active-set search must survive the degenerate target
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        res = eta_value(spec, [Point2(0.0, 0.0)])
        assert res.eta == 1
        res = eta_value(spec, [Point2(0.0, 0.0), Point2(0.0, 0.0)])
        assert res.eta == 1

    def test_eta_at_most_three(self, t_eq):
        rng = np.random.default_rng(20)
        for trial in range(40):
            spec = (
                ProximityMapSpec.pe(t_eq, float(rng.uniform(1.0, 3.0)))
                if rng.random() < 0.5
                else ProximityMapSpec.cs(t_eq, float(rng.uniform(0.2, 1.0)))
            )
            n = int(rng.integers(1, 30))
            sample = draw_sample(t_eq, n, rng)
            res = eta_value(spec, sample)
            assert 1 <= res.eta <= min(n, 3)


def _threshold_case(spec, n, rng, delta):
    """A PE spec and sample whose least beta_i puts bound_i at cellmin_i + delta."""
    t = spec.triangle
    i = int(rng.integers(3))
    cellmin = spec._pe_cell_constants[i][4]
    v = float(rng.uniform(0.0, cellmin))
    spec = ProximityMapSpec.pe(t, (1.0 - v) / (1.0 - cellmin - delta), spec.center)
    pts = []
    for k in range(n):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        if k == 0:
            w[i] = 0.0
            w /= w.sum()
        b = (1.0 - v) * w
        b[i] += v
        pts.append(t.point_at(b))
    return spec, np.array(pts)


def _pe_case(kind, spec, n, rng):
    """Uniform samples, or ones placed near the closed form's thresholds."""
    t = spec.triangle
    pts = sample_uniform_triangle(n, t, rng)
    if kind == "near_vertex":  # 1e-9 to 1e-7 from a vertex, towards the centroid
        j = int(rng.integers(3))
        v = np.asarray(t.vertices[j])
        c = np.asarray(center(t, "centroid"))
        pts[int(rng.integers(n))] = v + 10 ** rng.uniform(-9.0, -7.0) * (c - v) / np.linalg.norm(c - v)
    elif kind == "cell_boundary":  # on the segments from M to the cevian feet
        m = np.asarray(spec.vertex_partition().m)
        for k in range(n):
            foot = np.asarray(_cevian_foot(t, spec.vertex_partition().m, int(rng.integers(3))))
            pts[k] = m + rng.choice([0.0, rng.uniform(), 1.0]) * (foot - m)
    elif kind == "threshold":
        spec, pts = _threshold_case(spec, n, rng, float(rng.choice([-1e-10, 1e-10])))
    return spec, pts


class TestEtaClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        center_sel=st.sampled_from(["centroid", "incenter", "circumcenter", "interior"]),
        r=st.floats(1.0, 4.0),
        n=st.integers(1, 12),
        kind=st.sampled_from(["uniform", "near_vertex", "cell_boundary", "threshold"]),
    )
    def test_matches_polygon_route(self, seed, center_sel, r, n, kind):
        rng = np.random.default_rng(seed)
        t = equilateral_triangle() if rng.random() < 0.25 else random_triangle(rng)
        m = random_interior_point(t, rng) if center_sel == "interior" else center_sel
        try:
            spec = ProximityMapSpec.pe(t, r, m)
        except ValueError:  # the circumcenter of an obtuse triangle lies outside
            spec = ProximityMapSpec.pe(t, r)
        spec, pts = _pe_case(kind, spec, n, rng)
        sample = [Point2(*p) for p in pts]
        with mock.patch.object(gm, "_eta_pe_closed_form", lambda spec, pts: None):
            polygons = eta_value(spec, sample)
        assert eta_value(spec, sample) == polygons
        assert eta_value(spec, pts) == polygons
        reference = reference_eta_pe(spec, sample)
        if reference is not None:
            assert (polygons.eta, polygons.witness) == reference
        closed = gm._eta_pe_closed_form(spec, pts)
        if closed is not None:
            target = gamma1_from_extrema(spec, edge_extrema(sample, spec.triangle).points)
            assert closed == gm._eta_pe_polygons(spec, sample, target)
        if n <= 8:
            assert polygons.eta == eta_value(spec, sample, exhaustive=True).eta

    @pytest.mark.parametrize("r", [1.2, 2.0])
    def test_decides_generic_samples(self, t_eq, r):
        # r = 1.2 empties pieces, r = 2 leaves proper ones
        spec = ProximityMapSpec.pe(t_eq, r)
        for n in (3, 10, 50, 200):
            for k in range(25):
                pts = sample_uniform_triangle(n, t_eq, rng_for(8, n, k))
                closed = gm._eta_pe_closed_form(spec, pts)
                assert closed is not None
                assert (closed.eta, closed.witness) == reference_eta_pe(spec, pts)

    @pytest.mark.parametrize("delta", [-1e-10, 1e-10])
    def test_defers_at_empty_threshold(self, t_basic, delta):
        rng = np.random.default_rng(9)
        for trial in range(20):
            spec, pts = _threshold_case(ProximityMapSpec.pe(t_basic, 1.3, "incenter"), 6, rng, delta)
            assert gm._eta_pe_closed_form(spec, pts) is None

    def test_defers_on_vertex_extremum(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.4, 0.2]])
        assert gm._eta_pe_closed_form(spec, pts) is None
        assert eta_value(spec, pts) == eta_value(spec, pts, exhaustive=True)

    def test_defers_near_whole_cell(self, t_eq):
        # a single point 1e-8 from vertex 0 leaves cell 0 nearly whole
        spec = ProximityMapSpec.pe(t_eq, 1.5)
        pts = np.array([[1e-8, 1e-8]])
        assert gm._eta_pe_closed_form(spec, pts) is None
        assert eta_value(spec, pts).eta == 1

    def test_failed_region_equality_raises(self, t_eq, monkeypatch):
        monkeypatch.setattr(Gamma1Region, "equals", lambda self, other, tol=1e-8: False)
        sample = draw_sample(t_eq, 4, np.random.default_rng(3))
        with pytest.raises(RuntimeError, match="n=4"):
            eta_value(ProximityMapSpec.cs(t_eq, 0.5), sample)
        with pytest.raises(RuntimeError, match="'family': 'pe'"):
            eta_value(ProximityMapSpec.pe(t_eq, 2.0), sample, exhaustive=True)


class TestSampleValidation:
    def test_vectorized_matches_scalar_contains(self, t_eq):
        rng = np.random.default_rng(31)
        inside = outside = 0
        for trial in range(12):
            t = t_eq if trial == 0 else random_triangle(rng)
            spec = ProximityMapSpec.pe(t, 2.0)
            pts = []
            for _ in range(150):
                # beta_i jittered around the -1e-7 tolerance band of edge i
                i = int(rng.integers(3))
                off = -1e-7 + float(rng.choice([0.0, -1.0, 1.0])) * 10 ** rng.uniform(-16.0, -8.0)
                b = np.insert(rng.dirichlet([1.0, 1.0]) * (1.0 - off), i, off)
                pts.append(t.point_at(b))
            for p in pts:
                if t.contains(p, 1e-7):
                    inside += 1
                    gm._validated_points(spec, [p])
                else:
                    outside += 1
                    with pytest.raises(ValueError, match="outside"):
                        gm._validated_points(spec, [p])
            first_out = next((p for p in pts if not t.contains(p, 1e-7)), None)
            if first_out is not None:
                expected = re.escape(f"point {(float(first_out[0]), float(first_out[1]))} lies")
                with pytest.raises(ValueError, match=expected):
                    gm._validated_points(spec, pts)
        assert inside > 100 and outside > 100

    def test_exact_tolerance_boundary(self, t_basic):
        # beta_2 of this point evaluates to exactly -1e-7: inside, as for contains
        spec = ProximityMapSpec.pe(t_basic, 2.0)
        p = Point2(0.1, -7.999999999999999e-08)
        assert t_basic.barycentric(p)[2] == -1e-7
        assert t_basic.contains(p, 1e-7)
        gm._validated_points(spec, [p])
        q = Point2(0.1, float(np.nextafter(p.y, -1.0)))
        assert not t_basic.contains(q, 1e-7)
        with pytest.raises(ValueError, match="outside"):
            gm._validated_points(spec, [q])

    def test_empty_sample(self, t_eq):
        with pytest.raises(ValueError, match="empty"):
            eta_value(ProximityMapSpec.pe(t_eq, 2.0), [])
        with pytest.raises(ValueError, match="empty"):
            gamma1_set(ProximityMapSpec.pe(t_eq, 2.0), [])


class TestGamma1Area:
    def test_empty_and_whole(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, math.inf)
        g = gamma1_point(spec, Point2(0.4, 0.2))
        assert g.area() == pytest.approx(t_eq.area())

    def test_grid_agreement(self, t_eq):
        rng = np.random.default_rng(11)
        spec = ProximityMapSpec.pe(t_eq, 1.8)
        sample = draw_sample(t_eq, 6, rng)
        g = gamma1_set(spec, sample)
        approx = gamma1_grid_area(spec, sample, resolution=300)
        assert approx == pytest.approx(g.area(), abs=3e-4)

    def test_grid_only_families(self, t_eq):
        # spherical / arc-slice have no analytic pieces; the grid estimator
        # still works off the predicate
        rng = np.random.default_rng(12)
        sample = draw_sample(t_eq, 3, rng)
        spec = ProximityMapSpec.arc_slice(t_eq)
        a = gamma1_grid_area(spec, sample, resolution=200)
        assert a >= 0.0
        with pytest.raises(ValueError):
            gamma1_set(spec, sample)

    def test_grid_refinement_tightens(self, t_eq):
        # the refined estimate at low resolution lands near the analytic area
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = draw_sample(t_eq, 5, np.random.default_rng(13))
        exact = gamma1_set(spec, sample).area()
        coarse = gamma1_grid_area(spec, sample, resolution=60, refine=1)
        refined = gamma1_grid_area(spec, sample, resolution=60, refine=4)
        assert abs(refined - exact) <= abs(coarse - exact) + 2e-4
        assert abs(refined - exact) < 3e-4

    def test_spherical_grid_area_shrinks(self, t_eq):
        # no analytic route for the spherical family; the grid area of the
        # covering region decreases with more points (empty superset region)
        spec = ProximityMapSpec.spherical(t_eq.vertices)
        rng = np.random.default_rng(14)
        small = draw_sample(t_eq, 2, rng)
        big = small + draw_sample(t_eq, 30, rng)
        a_small = gamma1_grid_area(spec, small, resolution=150)
        a_big = gamma1_grid_area(spec, big, resolution=150)
        assert a_big <= a_small + 1e-12


class TestOneDimensional:
    def test_formula_examples(self):
        lo, hi = gamma1_interval_1d([0.2, 0.6])
        assert (lo, hi) == (pytest.approx(0.3), pytest.approx(0.6))
        lo, hi = gamma1_interval_1d([0.5])
        assert (lo, hi) == (pytest.approx(0.25), pytest.approx(0.75))

    def test_predicate_scan_oracle(self):
        # oracle: z covers the sample iff every x is in the 1-D ball around z
        sample = [0.2, 0.6]
        lo, hi = gamma1_interval_1d(sample)
        spec = ProximityMapSpec.interval((0.0, 1.0))
        for z in np.linspace(0.01, 0.99, 197):
            covered = all(contains(spec, float(z), x) for x in sample)
            inside = lo + 1e-9 < z < hi - 1e-9
            on_edge = min(abs(z - lo), abs(z - hi)) < 1e-2
            if not on_edge:
                assert covered == inside

    def test_mean_length(self):
        rng = np.random.default_rng(13)
        n = 6
        lengths = []
        for _ in range(4000):
            xs = rng.random(n)
            lo, hi = gamma1_interval_1d(xs.tolist())
            lengths.append(hi - lo)
        mean = float(np.mean(lengths))
        se = float(np.std(lengths, ddof=1) / math.sqrt(len(lengths)))
        assert abs(mean - 1.0 / (n + 1)) <= 3.0 * se

    def test_gamma2_rectangles(self):
        rects = gamma2_rectangles_1d([0.2, 0.8])
        assert len(rects) == 1
        (x0, x1), (y0, y1) = rects[0]
        assert (x0, x1) == (pytest.approx(0.1), pytest.approx(0.4))
        assert (y0, y1) == (pytest.approx(0.6), pytest.approx(0.9))
        assert gamma2_rectangles_1d([0.4]) == []

    def test_gamma2_consistency_on_grid(self):
        sample = [0.15, 0.45, 0.85]
        rects = gamma2_rectangles_1d(sample)
        spec = ProximityMapSpec.interval((0.0, 1.0))
        lo, hi = gamma1_interval_1d(sample)
        for u in np.linspace(0.02, 0.98, 33):
            for v in np.linspace(0.02, 0.98, 33):
                in_rect = any(
                    x0 + 1e-9 < u < x1 - 1e-9 and y0 + 1e-9 < v < y1 - 1e-9
                    for (x0, x1), (y0, y1) in rects
                )
                if in_rect:
                    assert all(
                        contains(spec, float(u), x) or contains(spec, float(v), x)
                        for x in sample
                    )
                    assert not (lo < u < hi) and not (lo < v < hi)


class TestGammaK:
    def test_k1_reduces_to_cover(self, t_eq):
        rng = np.random.default_rng(14)
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = draw_sample(t_eq, 5, rng)
        g = gamma1_set(spec, sample)
        for x in sample:
            assert gamma_k_membership(spec, [x], sample) == g.contains(x, 1e-9)

    def test_gamma_equivalence_small(self, t_eq):
        from proxcatch import build_pcd, domination_number

        rng = np.random.default_rng(15)
        for trial in range(20):
            spec = ProximityMapSpec.pe(t_eq, float(rng.uniform(1.1, 2.5)))
            sample = draw_sample(t_eq, int(rng.integers(2, 7)), rng)
            d = build_pcd(spec, sample)
            gamma = domination_number(d).gamma
            smallest = None
            for k in range(1, len(sample) + 1):
                if any(
                    gamma_k_membership(spec, list(tup), sample)
                    for tup in combinations(sample, k)
                ):
                    smallest = k
                    break
            assert smallest == gamma

    def test_stirling_identity_corrected(self, t_eq):
        # pairs region == union over 2-block splits of product regions,
        # restricted to pairs with both coordinates outside the 1-region
        rng = np.random.default_rng(16)
        spec = ProximityMapSpec.pe(t_eq, 1.5)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            sample = draw_sample(t_eq, n, rng)
            probes = [(sample[i], sample[j]) for i in range(n) for j in range(n) if i != j]
            probes += [
                (draw_sample(t_eq, 1, rng)[0], draw_sample(t_eq, 1, rng)[0]) for _ in range(10)
            ]
            for (u, v) in probes:
                member = gamma_k_membership(spec, [u, v], sample)
                in_g1_u = covers(spec, [u], sample)
                in_g1_v = covers(spec, [v], sample)
                decomposed = False
                idx = list(range(n))
                for mask in range(1, 2 ** n - 1):
                    b1 = [sample[i] for i in idx if (mask >> i) & 1]
                    b2 = [sample[i] for i in idx if not (mask >> i) & 1]
                    if covers(spec, [u], b1) and covers(spec, [v], b2):
                        decomposed = True
                        break
                rhs = decomposed and not in_g1_u and not in_g1_v
                assert member == rhs


class TestGeneralFrameSoak:
    def test_oracles_hold_for_random_frames_and_centers(self):
        # the permanent oracle suites run in the equilateral frame with the
        # centroid; this repeats them across random triangles and off-center
        # interior centers
        from conftest import random_interior_point, random_triangle
        from proxcatch.sim import sample_uniform_triangle as sut

        rng = np.random.default_rng(777)
        for trial in range(40):
            t = random_triangle(rng)
            m = random_interior_point(t, rng, margin=0.08)
            if rng.random() < 0.5:
                spec = ProximityMapSpec.pe(t, float(rng.uniform(1.0, 3.5)), m)
            else:
                spec = ProximityMapSpec.cs(t, float(rng.uniform(0.15, 1.0)), m)
            n = int(rng.integers(1, 10))
            sample = [Point2(*p) for p in sut(n, t, rng)]
            g1 = gamma1_set(spec, sample)
            assert gamma1_via_extrema(spec, sample).equals(g1, 1e-7)
            zs = sut(250, t, rng)
            mask = gamma1_predicate_mask(spec, sample, zs)
            for z, mm in zip(zs, mask):
                zp = Point2(*z)
                if g1.contains(zp, 1e-9) != mm:
                    d = min(
                        (p.boundary_distance(zp) for p in g1.pieces if not p.is_empty),
                        default=np.inf,
                    )
                    assert d <= 1e-6, (trial, tuple(zp))
            if n <= 8:
                assert eta_value(spec, sample).eta == eta_value(spec, sample, exhaustive=True).eta


class TestStochasticOrdering:
    def test_area_cdf_dominance(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        reps = 1500
        n = 12
        areas = {}
        for nn in (n, 2 * n):
            vals = np.empty(reps)
            for k in range(reps):
                pts = sample_uniform_triangle(nn, t_eq, rng_for(321, nn, k))
                sample = [Point2(*p) for p in pts]
                vals[k] = gamma1_via_extrema(spec, sample).area()
            areas[nn] = np.sort(vals)
        for q in np.arange(0.1, 0.91, 0.1):
            q_small = np.quantile(areas[n], q)
            q_big = np.quantile(areas[2 * n], q)
            assert q_big <= q_small + 1e-4
