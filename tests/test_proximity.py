import math

import numpy as np
import pytest

from proxcatch import (
    Point2,
    ProximityMapSpec,
    Triangle,
    center,
    contains,
    interval_region,
    region,
    region_area,
    spherical_region,
    to_equilateral,
)
from proxcatch.geom import EPS
from proxcatch.proximity import adjacency, disk_triangle_area_mc, edge_cells, vertex_cells
from proxcatch.regions import locate
from proxcatch.sim import sample_uniform_triangle

from conftest import random_interior_point, random_triangle

SQRT3 = math.sqrt(3.0)


def rand_pt(t, rng):
    return Point2(*sample_uniform_triangle(1, t, rng)[0])


class TestProportionalEdge:
    def test_self_membership(self, t_eq):
        rng = np.random.default_rng(1)
        for r in (1.0, 1.3, 2.0, 5.0, math.inf):
            spec = ProximityMapSpec.pe(t_eq, r)
            for _ in range(40):
                x = rand_pt(t_eq, rng)
                assert contains(spec, x, x)

    def test_vertex_is_singleton(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        reg = region(spec, Point2(0.0, 0.0))
        assert reg.kind == "point"
        assert region_area(spec, Point2(0.0, 0.0)) == 0.0

    def test_r_infinity_whole_triangle(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, math.inf)
        x = Point2(0.4, 0.2)
        assert region_area(spec, x) == pytest.approx(t_eq.area())
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert contains(spec, x, rand_pt(t_eq, rng))

    def test_unclipped_similar_area_ratio(self, t_eq):
        # x deep in a vertex cell: region is the unclipped similar triangle of
        # area (r * depth)^2 relative to the whole
        spec = ProximityMapSpec.pe(t_eq, 1.5)
        part = spec.vertex_partition()
        x = Point2(0.5, 0.05)  # close to the base: cell of a base vertex
        i = locate(part, x)
        depth = 1.0 - t_eq.barycentric(x)[i]
        s = 1.5 * depth
        assert s < 1.0
        assert region_area(spec, x) == pytest.approx(s * s * t_eq.area())

    def test_region_is_clipped_inside(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 3.0)
        x = Point2(0.5, 0.4)
        reg = region(spec, x)
        for v in reg.polygon.vertices:
            assert t_eq.contains(v, 1e-9)

    def test_outside_point_rejected(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        with pytest.raises(ValueError):
            region(spec, Point2(3.0, 3.0))

    def test_vertex_region_monotonicity(self, t_eq):
        # deeper point in the same cell has the larger region
        rng = np.random.default_rng(3)
        spec = ProximityMapSpec.pe(t_eq, 1.7)
        part = spec.vertex_partition()
        done = 0
        while done < 60:
            x1, x2 = rand_pt(t_eq, rng), rand_pt(t_eq, rng)
            i1, i2 = locate(part, x1), locate(part, x2)
            if i1 != i2:
                continue
            d1 = 1.0 - t_eq.barycentric(x1)[i1]
            d2 = 1.0 - t_eq.barycentric(x2)[i1]
            if d1 > d2:
                x1, x2 = x2, x1
            y = rand_pt(t_eq, rng)
            if contains(spec, x1, y):
                assert contains(spec, x2, y)
            done += 1


class TestCentralSimilarity:
    def test_tau_zero_singleton(self, t_eq):
        spec = ProximityMapSpec.cs(t_eq, 0.0)
        assert region(spec, Point2(0.5, 0.2)).kind == "point"

    def test_region_inside_triangle(self, t_eq):
        rng = np.random.default_rng(4)
        for tau in (0.3, 0.7, 1.0):
            spec = ProximityMapSpec.cs(t_eq, tau)
            for _ in range(40):
                x = rand_pt(t_eq, rng)
                reg = region(spec, x)
                assert reg.kind == "polygon" and len(reg.polygon) == 3
                for v in reg.polygon.vertices:
                    assert t_eq.contains(v, 1e-9)

    def test_center_tau_one_is_whole_triangle(self, t_eq):
        spec = ProximityMapSpec.cs(t_eq, 1.0)
        m = center(t_eq, "centroid")
        reg = region(spec, m)
        got = sorted(tuple(np.round(v, 10)) for v in reg.polygon.vertices)
        want = sorted(tuple(np.round(v, 10)) for v in t_eq.vertices)
        assert got == want

    def test_self_membership_positive_tau(self, t_eq):
        rng = np.random.default_rng(5)
        spec = ProximityMapSpec.cs(t_eq, 0.4)
        for _ in range(50):
            x = rand_pt(t_eq, rng)
            assert contains(spec, x, x)

    def test_same_center_type_property(self, t_basic):
        # x sits in its region with M's barycentric coordinates
        rng = np.random.default_rng(6)
        m = random_interior_point(t_basic, rng)
        spec = ProximityMapSpec.cs(t_basic, 0.6, m)
        bm = t_basic.barycentric(m)
        for _ in range(20):
            x = rand_pt(t_basic, rng)
            reg = region(spec, x)
            if reg.kind != "polygon":
                continue
            tt = Triangle(*reg.polygon.vertices)
            bx = tt.barycentric(x)
            # vertex order may rotate; compare as multisets
            assert sorted(bx) == pytest.approx(sorted(bm), abs=1e-9)


class TestSphericalAndArcSlice:
    def test_anchor_point_singleton(self, t_eq):
        reg = spherical_region(t_eq.vertices, Point2(0.0, 0.0))
        assert reg.kind == "point"

    def test_square_corners_radius(self):
        corners = [Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(1, 1)]
        reg = spherical_region(corners, Point2(0.5, 0.5))
        assert reg.radius == pytest.approx(math.sqrt(2.0) / 2.0)
        assert reg.area() == pytest.approx(math.pi / 2.0)

    def test_strict_membership(self, t_eq):
        spec = ProximityMapSpec.spherical(t_eq.vertices)
        x = Point2(0.5, 0.2)
        r = min(math.dist(x, v) for v in t_eq.vertices)
        d = math.hypot(r, 0.0)
        on_boundary = Point2(x.x + r, x.y)
        assert not contains(spec, x, on_boundary)
        inside = Point2(x.x + 0.9 * r, x.y)
        assert contains(spec, x, inside)

    def test_arcslice_vertex_singleton(self, t_eq):
        spec = ProximityMapSpec.arc_slice(t_eq)
        assert region(spec, Point2(1.0, 0.0)).kind == "point"

    def test_arcslice_incenter_radius(self, t_eq):
        spec = ProximityMapSpec.arc_slice(t_eq)
        inc = center(t_eq, "incenter")
        reg = region(spec, inc)
        assert reg.radius == pytest.approx(min(math.dist(inc, v) for v in t_eq.vertices))

    def test_arcslice_membership_vs_area_independent(self, t_eq):
        spec = ProximityMapSpec.arc_slice(t_eq)
        x = Point2(0.45, 0.3)
        reg = region(spec, x)
        rng = np.random.default_rng(12)
        for _ in range(100):
            y = rand_pt(t_eq, rng)
            assert contains(spec, x, y) == reg.contains(y)

    def test_arcslice_area_vs_mc(self, t_basic):
        spec = ProximityMapSpec.arc_slice(t_basic)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rand_pt(t_basic, rng)
            reg = region(spec, x)
            exact = reg.area()
            mc, se = disk_triangle_area_mc(x, reg.radius, t_basic, 1_000_000, rng)
            assert abs(exact - mc) <= 3.0 * max(se, 1e-9)


class TestInterval:
    def test_basic_cases(self):
        reg = interval_region((0.0, 1.0), 0.3)
        assert (reg.lo, reg.hi) == (pytest.approx(0.0), pytest.approx(0.6))
        reg = interval_region((0.0, 1.0), 0.5)
        assert (reg.lo, reg.hi) == (pytest.approx(0.0), pytest.approx(1.0))
        assert interval_region((0.0, 1.0), 0.0).kind == "point"

    def test_end_cells_extend_outward(self):
        reg = interval_region((0.0, 1.0), -0.5)
        assert (reg.lo, reg.hi) == (pytest.approx(-1.0), pytest.approx(0.0))

    def test_membership(self):
        spec = ProximityMapSpec.interval((0.0, 1.0))
        assert contains(spec, 0.3, 0.5)
        assert not contains(spec, 0.3, 0.6)  # open interval endpoint
        assert contains(spec, 0.3, 0.3)


class TestContainsRegionAgreement:
    @pytest.mark.parametrize("family", ["pe", "cs", "spherical", "arcslice"])
    def test_dual_path_agreement(self, family, t_basic):
        rng = np.random.default_rng(14)
        made = 0
        while made < 2500:
            if family == "pe":
                spec = ProximityMapSpec.pe(t_basic, float(rng.uniform(1.0, 4.0)))
            elif family == "cs":
                spec = ProximityMapSpec.cs(t_basic, float(rng.uniform(0.1, 1.0)))
            elif family == "spherical":
                spec = ProximityMapSpec.spherical(t_basic.vertices)
            else:
                spec = ProximityMapSpec.arc_slice(t_basic)
            x, y = rand_pt(t_basic, rng), rand_pt(t_basic, rng)
            reg = region(spec, x)
            assert contains(spec, x, y) == reg.contains(y), (family, x, y)
            made += 50  # 50 map draws x one pair each is plenty per family


class TestMonotonicityInParameter:
    def test_pe(self, t_eq):
        rng = np.random.default_rng(15)
        r1, r2 = 1.4, 2.3
        s1 = ProximityMapSpec.pe(t_eq, r1)
        s2 = ProximityMapSpec.pe(t_eq, r2)
        for _ in range(300):
            x, y = rand_pt(t_eq, rng), rand_pt(t_eq, rng)
            if contains(s1, x, y):
                assert contains(s2, x, y)

    def test_cs(self, t_eq):
        rng = np.random.default_rng(16)
        s1 = ProximityMapSpec.cs(t_eq, 0.3)
        s2 = ProximityMapSpec.cs(t_eq, 0.9)
        for _ in range(300):
            x, y = rand_pt(t_eq, rng), rand_pt(t_eq, rng)
            if contains(s1, x, y):
                assert contains(s2, x, y)


class TestGeometryInvariance:
    @pytest.mark.parametrize("family", ["pe", "cs"])
    def test_indicator_preserved_by_equilateral_map(self, family, params_basic, t_eq):
        t_b = params_basic.triangle()
        rng = np.random.default_rng(17)
        m_b = random_interior_point(t_b, rng)
        m_e = to_equilateral(m_b, params_basic)
        if family == "pe":
            spec_b = ProximityMapSpec.pe(t_b, 1.8, m_b)
            spec_e = ProximityMapSpec.pe(t_eq, 1.8, m_e)
        else:
            spec_b = ProximityMapSpec.cs(t_b, 0.6, m_b)
            spec_e = ProximityMapSpec.cs(t_eq, 0.6, m_e)
        pairs = 0
        disagreements = 0
        boundary_skips = 0
        while pairs < 2000:
            x, y = rand_pt(t_b, rng), rand_pt(t_b, rng)
            a = contains(spec_b, x, y)
            b = contains(spec_e, to_equilateral(x, params_basic), to_equilateral(y, params_basic))
            if a != b:
                disagreements += 1
            pairs += 1
        assert disagreements == 0


class TestAdjacencyKernel:
    @pytest.mark.parametrize("family", ["pe", "cs", "spherical", "arcslice"])
    def test_matches_scalar_contains(self, family, t_basic):
        rng = np.random.default_rng(18)
        if family == "pe":
            spec = ProximityMapSpec.pe(t_basic, 1.9, random_interior_point(t_basic, rng))
        elif family == "cs":
            spec = ProximityMapSpec.cs(t_basic, 0.55, random_interior_point(t_basic, rng))
        elif family == "spherical":
            spec = ProximityMapSpec.spherical(t_basic.vertices)
        else:
            spec = ProximityMapSpec.arc_slice(t_basic)
        pts = sample_uniform_triangle(30, t_basic, rng)
        adj = adjacency(spec, pts)
        sample = [Point2(*p) for p in pts]
        for i in range(30):
            for j in range(30):
                assert bool(adj[i, j]) == contains(spec, sample[i], sample[j]), (i, j)

    def test_interval_matches_scalar(self):
        spec = ProximityMapSpec.interval((0.0, 1.0))
        rng = np.random.default_rng(19)
        xs = rng.uniform(0.01, 0.99, size=25)
        adj = adjacency(spec, xs)
        for i in range(25):
            for j in range(25):
                assert bool(adj[i, j]) == contains(spec, xs[i], xs[j])


def loop_cells(spec, pts, kind):
    """Reference cell test: the per-call loop over rays and cells that
    `vertex_cells`/`edge_cells` replaced with per-spec constants."""
    t = spec.triangle
    part = spec.vertex_partition() if kind == "vertex" else spec.edge_partition()
    m = part.m
    signs = np.empty((3, len(pts)))
    refs = np.empty((3, 3))
    for j in range(3):
        v = t.vertices[j]
        if kind == "vertex":
            ux, uy, o = m[0] - v[0], m[1] - v[1], v
        else:
            ux, uy, o = v[0] - m[0], v[1] - m[1], m
        norm = math.hypot(ux, uy)
        signs[j] = ux / norm * (pts[:, 1] - o[1]) - uy / norm * (pts[:, 0] - o[0])
        for i in range(3):
            if kind == "vertex":
                w = t.vertices[i]
                refs[j, i] = ux / norm * (w[1] - v[1]) - uy / norm * (w[0] - v[0])
            else:
                a, b = t.edge(i)
                mid = Point2((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                refs[j, i] = (ux * (mid[1] - m[1]) - uy * (mid[0] - m[0])) / norm
    out = np.full(len(pts), -1, dtype=np.int64)
    for i in range(3):
        mask = out < 0
        for j in range(3):
            if j != i:
                mask = mask & (signs[j] * np.sign(refs[j, i]) >= -EPS)
        out[mask] = i
    for k in np.nonzero(out < 0)[0]:
        out[k] = locate(part, Point2(pts[k, 0], pts[k, 1]))
    return out


class TestCellKernels:
    def test_match_loop_reference_near_boundaries(self):
        rng = np.random.default_rng(23)
        g = np.array([(a, b, 12 - a - b) for a in range(13) for b in range(13 - a)]) / 12.0
        for trial in range(12):
            t = random_triangle(rng)
            m = random_interior_point(t, rng) if trial % 2 else "centroid"
            w = np.vstack([rng.dirichlet(np.ones(3), 200), g, g + rng.normal(0.0, 3e-10, g.shape)])
            pts = w @ np.asarray(t.vertices)
            spec_pe = ProximityMapSpec.pe(t, 1.5, m)
            spec_cs = ProximityMapSpec.cs(t, 0.5, m)
            assert np.array_equal(vertex_cells(spec_pe, pts), loop_cells(spec_pe, pts, "vertex"))
            assert np.array_equal(edge_cells(spec_cs, pts), loop_cells(spec_cs, pts, "edge"))
