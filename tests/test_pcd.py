import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcatch import (
    PcdDigraph,
    Point2,
    ProximityMapSpec,
    arc_density,
    build_pcd,
    center,
    contains,
    cs_gamma_n_construction,
    default_cs_epsilon,
    domination_number,
    gamma1_via_extrema,
    interval_domination,
    kappa_upper_bound,
    pe_three_point_cover,
    superset_region,
)
from proxcatch import pcd
from proxcatch.sim import rng_for, sample_uniform_triangle

from conftest import random_interior_point
from reference_pcd import arcs_of, brute_force_gamma, dominates, reference_domination

SQRT3 = math.sqrt(3.0)


def draw_sample(t, n, rng):
    return [Point2(*p) for p in sample_uniform_triangle(n, t, rng)]


class TestBuildPcd:
    def test_arc_rule(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 1.6)
        sample = draw_sample(t_eq, 12, np.random.default_rng(0))
        d = build_pcd(spec, sample)
        assert d.n == 12
        for i in range(12):
            for j in range(12):
                if i == j:
                    assert not d.adj[i, j]
                else:
                    assert d.adj[i, j] == contains(spec, sample[i], sample[j])

    def test_single_point_no_arcs(self, t_eq):
        d = build_pcd(ProximityMapSpec.pe(t_eq, 2.0), [Point2(0.5, 0.3)])
        assert d.n == 1 and not d.adj.any()

    def test_r_infinity_complete(self, t_eq):
        d = build_pcd(ProximityMapSpec.pe(t_eq, math.inf), draw_sample(t_eq, 7, np.random.default_rng(1)))
        assert np.count_nonzero(d.adj) == 7 * 6

    def test_sample_in_superset_region_complete(self, t_eq):
        # points inside the superset region have the whole triangle as region
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        rs = superset_region(spec)
        rng = np.random.default_rng(2)
        pts = []
        while len(pts) < 8:
            p = draw_sample(t_eq, 1, rng)[0]
            if rs.contains(p, -1e-9):
                pts.append(p)
        d = build_pcd(spec, pts)
        assert np.count_nonzero(d.adj) == 8 * 7
        assert arc_density(d) == 1.0
        assert domination_number(d).gamma == 1

    def test_json_round_trip(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        sample = draw_sample(t_eq, 9, np.random.default_rng(3))
        d = build_pcd(spec, sample)
        d2 = PcdDigraph.from_json_dict(d.to_json_dict(spec, seed=42))
        assert d2 == d
        assert domination_number(d2) == domination_number(d)

    def test_invalid_arcs_rejected(self):
        for bad in ((0, 0), (0, 5), (-1, 2), (3, 0)):
            with pytest.raises(ValueError):
                PcdDigraph.from_arcs(3, {(0, 1), bad})
            with pytest.raises(ValueError):
                PcdDigraph.from_json_dict({"n": 3, "arcs": [[0, 1], list(bad)]})

    def test_invalid_matrix_rejected(self):
        loop = np.zeros((3, 3), dtype=bool)
        loop[1, 1] = True
        for bad in (loop, np.zeros((3, 2), dtype=bool), np.zeros((3, 3), dtype=int)):
            with pytest.raises(ValueError):
                PcdDigraph(3, bad)

    def test_matrix_read_only(self):
        d = PcdDigraph.from_arcs(3, {(0, 1), (2, 1)})
        with pytest.raises(ValueError):
            d.adj[0, 2] = True
        assert np.argwhere(d.adj).tolist() == [[0, 1], [2, 1]]


class TestDomination:
    def test_complete(self):
        arcs = [(i, j) for i in range(5) for j in range(5) if i != j]
        res = domination_number(PcdDigraph.from_arcs(5, arcs))
        assert res.gamma == 1

    def test_empty_arcs(self):
        res = domination_number(PcdDigraph.from_arcs(6, ()))
        assert res.gamma == 6
        assert res.witness == tuple(range(6))

    def test_gamma1_iff_sample_meets_region(self, t_eq):
        rng = np.random.default_rng(4)
        for trial in range(60):
            r = float(rng.uniform(1.1, 3.0))
            spec = ProximityMapSpec.pe(t_eq, r)
            sample = draw_sample(t_eq, int(rng.integers(2, 12)), rng)
            d = build_pcd(spec, sample)
            gamma = domination_number(d, kmax=3).gamma
            region = gamma1_via_extrema(spec, sample)
            meets = any(region.contains(x, 1e-9) for x in sample)
            assert (gamma == 1) == meets

    def test_size_limit_without_kmax(self):
        with pytest.raises(ValueError):
            domination_number(PcdDigraph.from_arcs(30, ()))

    def test_kmax_failure_raises(self):
        with pytest.raises(ValueError):
            domination_number(PcdDigraph.from_arcs(6, ()), kmax=3)

    def test_witness_dominates(self, t_eq):
        rng = np.random.default_rng(5)
        spec = ProximityMapSpec.cs(t_eq, 0.4)
        sample = draw_sample(t_eq, 10, rng)
        d = build_pcd(spec, sample)
        res = domination_number(d)
        masks = d.closed_out_masks()
        covered = 0
        for w in res.witness:
            covered |= masks[w]
        assert covered == (1 << d.n) - 1
        # minimality: no smaller set dominates (exhaustive check)
        from itertools import combinations

        for k in range(1, res.gamma):
            for sub in combinations(range(d.n), k):
                got = 0
                for w in sub:
                    got |= masks[w]
                assert got != (1 << d.n) - 1


def _check_against_reference(d, kmax):
    """domination_number agrees with the reference search and with brute force
    on gamma and on when it raises; its witness dominates."""
    arcs = arcs_of(d.adj)
    expected = brute_force_gamma(d.n, arcs) if d.n <= 12 else None
    try:
        ref = reference_domination(d.n, arcs, kmax)
    except ValueError:
        ref = None
    if ref is None:
        with pytest.raises(ValueError):
            domination_number(d, kmax=kmax)
        if expected is not None and kmax is not None:
            assert expected > kmax
        return None
    res = domination_number(d, kmax=kmax)
    assert res.gamma == ref[0]
    if expected is not None:
        assert res.gamma == expected
    assert len(set(res.witness)) == res.gamma
    assert dominates(d.n, arcs, res.witness)
    return res


class TestDominationReference:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        kmax=st.sampled_from([None, 1, 2, 3]),
    )
    def test_random_digraphs(self, n, density, seed, kmax):
        adj = np.random.default_rng(seed).random((n, n)) < density
        np.fill_diagonal(adj, False)
        _check_against_reference(PcdDigraph(n, adj), kmax)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_pe_samples_kmax3(self, n, t_eq, monkeypatch):
        # small product blocks, so the pair test runs over many of them
        monkeypatch.setattr(pcd, "_PAIR_BLOCK_ELEMS", 50 * n)
        rng = rng_for(31, n, 0)
        for r in (1.2, 1.5, 2.0):
            d = build_pcd(ProximityMapSpec.pe(t_eq, r), draw_sample(t_eq, n, rng))
            res = _check_against_reference(d, 3)
            assert res is not None and res.gamma <= 3


class TestArcDensity:
    def test_values(self):
        assert arc_density(PcdDigraph.from_arcs(2, {(0, 1)})) == 0.5
        assert arc_density(PcdDigraph.from_arcs(3, ())) == 0.0
        with pytest.raises(ValueError):
            arc_density(PcdDigraph.from_arcs(1, ()))


class TestKappa:
    def test_values(self, t_eq):
        assert kappa_upper_bound(ProximityMapSpec.pe(t_eq, 2.0)) == 3
        assert kappa_upper_bound(ProximityMapSpec.cs(t_eq, 0.5)) == "unbounded"
        assert kappa_upper_bound(ProximityMapSpec.interval((0.0, 1.0))) == 2
        assert kappa_upper_bound(ProximityMapSpec.spherical(t_eq.vertices)) == "unknown"
        assert kappa_upper_bound(ProximityMapSpec.arc_slice(t_eq)) == "unknown"


class TestThreePointCover:
    def test_always_dominates(self, t_eq):
        rng = np.random.default_rng(6)
        for trial in range(60):
            r = float(rng.uniform(1.0, 3.0))
            m = random_interior_point(t_eq, rng)
            spec = ProximityMapSpec.pe(t_eq, r, m)
            sample = draw_sample(t_eq, int(rng.integers(1, 40)), rng)
            witness = pe_three_point_cover(spec, sample)
            assert 1 <= len(witness) <= 3
            d = build_pcd(spec, sample)
            masks = d.closed_out_masks()
            covered = 0
            for w in witness:
                covered |= masks[w]
            assert covered == (1 << d.n) - 1

    def test_single_cell_sample(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 1.5)
        # points near one vertex stay inside one vertex cell
        sample = [Point2(0.05, 0.01), Point2(0.10, 0.02), Point2(0.02, 0.01)]
        witness = pe_three_point_cover(spec, sample)
        assert len(witness) == 1

    def test_n1(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        assert pe_three_point_cover(spec, [Point2(0.4, 0.2)]) == (0,)


class TestCsConstruction:
    def test_tau_one_y_coordinates(self, t_eq):
        pts = cs_gamma_n_construction(4, t_eq, 1.0)
        m = center(t_eq, "centroid")
        for p in pts:
            assert p.y == pytest.approx(m.y / 4.0)
        # x spacing 1/n starting at m1/n
        assert pts[0].x == pytest.approx(m.x / 4.0)
        for a, b in zip(pts, pts[1:]):
            assert b.x - a.x == pytest.approx(0.25)

    def test_pairwise_containment_iff_same(self, t_eq):
        spec = ProximityMapSpec.cs(t_eq, 1.0)
        pts = cs_gamma_n_construction(5, t_eq, 1.0)
        for i, zi in enumerate(pts):
            for j, zj in enumerate(pts):
                assert contains(spec, zi, zj) == (i == j)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_gamma_equals_n(self, n, t_eq):
        for tau in (1.0, 0.5):
            pts = cs_gamma_n_construction(n, t_eq, tau)
            d = build_pcd(ProximityMapSpec.cs(t_eq, tau), pts)
            assert domination_number(d).gamma == n

    def test_perturbed_still_gamma_n(self, t_eq):
        n = 5
        rng = rng_for(2718, n, 0)
        pts = cs_gamma_n_construction(
            n, t_eq, 1.0, epsilon=default_cs_epsilon(n, t_eq), rng=rng
        )
        d = build_pcd(ProximityMapSpec.cs(t_eq, 1.0), pts)
        assert domination_number(d).gamma == n

    def test_validation(self, t_eq):
        with pytest.raises(ValueError):
            cs_gamma_n_construction(0, t_eq, 1.0)
        with pytest.raises(ValueError):
            cs_gamma_n_construction(3, t_eq, 0.0)
        with pytest.raises(ValueError):
            cs_gamma_n_construction(3, t_eq, 1.0, epsilon=0.01)  # rng missing


class TestMonotonicityCharacterization:
    """The bound gamma <= 3 holds exactly for maps whose regions grow with
    depth inside a cell; proportional-edge satisfies it, central similarity
    does not (hence its unbounded domination number)."""

    def test_pe_satisfies_vertex_monotonicity(self, t_eq):
        from proxcatch.regions import locate

        rng = np.random.default_rng(9)
        spec = ProximityMapSpec.pe(t_eq, 1.8)
        part = spec.vertex_partition()
        checked = 0
        while checked < 200:
            a, b = draw_sample(t_eq, 2, rng)
            ia, ib = locate(part, a), locate(part, b)
            if ia != ib:
                continue
            da = 1.0 - t_eq.barycentric(a)[ia]
            db = 1.0 - t_eq.barycentric(b)[ia]
            shallow, deep = (a, b) if da <= db else (b, a)
            y = draw_sample(t_eq, 1, rng)[0]
            if contains(spec, shallow, y):
                assert contains(spec, deep, y)
            checked += 1

    def test_cs_violates_edge_monotonicity(self, t_eq):
        # find x deeper than z in the same edge cell with N(z) not inside N(x)
        from proxcatch.geom import point_line_distance
        from proxcatch.regions import locate

        rng = np.random.default_rng(10)
        spec = ProximityMapSpec.cs(t_eq, 0.8)
        part = spec.edge_partition()
        violated = False
        for trial in range(4000):
            z, x = draw_sample(t_eq, 2, rng)
            iz, ix = locate(part, z), locate(part, x)
            if iz != ix:
                continue
            a, b = t_eq.edge(iz)
            if point_line_distance(z, a, b) > point_line_distance(x, a, b):
                z, x = x, z
            y = draw_sample(t_eq, 1, rng)[0]
            if contains(spec, z, y) and not contains(spec, x, y):
                violated = True
                break
        assert violated


class TestIntervalDomination:
    def test_matches_exhaustive(self):
        rng = np.random.default_rng(7)
        spec = ProximityMapSpec.interval((0.0, 1.0))
        for trial in range(100):
            n = int(rng.integers(1, 12))
            xs = rng.uniform(0.001, 0.999, size=n).tolist()
            fast = interval_domination(xs)
            d = build_pcd(spec, xs)
            slow = domination_number(d)
            assert fast.gamma == slow.gamma
            # fast witness really dominates
            masks = d.closed_out_masks()
            got = 0
            for w in fast.witness:
                got |= masks[w]
            assert got == (1 << n) - 1

    def test_kappa_two_law(self):
        rng = np.random.default_rng(8)
        for trial in range(3000):
            n = int(rng.integers(1, 40))
            xs = rng.uniform(0.0, 1.0, size=n)
            xs = np.clip(xs, 1e-9, 1 - 1e-9).tolist()
            assert interval_domination(xs).gamma <= 2
