import hashlib
import math

import pytest

from proxcatch import (
    Point2,
    ProximityMapSpec,
    SimConfig,
    Triangle,
    center,
    fit_rate,
    one_dim_harness,
    rng_for,
    run_config,
    sample_density_rejection,
    sample_uniform_triangle,
)
from proxcatch.sim import (
    CHI2_CRIT_99_DOF63,
    chi_square_uniform_triangle,
    csv_text,
    estimate_edge_distance,
    estimate_gamma1_prob,
)

SQRT3 = math.sqrt(3.0)


class TestSampling:
    def test_inside_triangle(self, t_basic):
        pts = sample_uniform_triangle(5000, t_basic, rng_for(1, 5000, 0))
        for p in pts[::97]:
            assert t_basic.contains(Point2(*p), 1e-12)

    def test_mean_is_centroid(self, t_basic):
        pts = sample_uniform_triangle(100_000, t_basic, rng_for(2, 100_000, 0))
        m = center(t_basic, "centroid")
        se = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
        assert abs(pts[:, 0].mean() - m.x) <= 3 * se[0]
        assert abs(pts[:, 1].mean() - m.y) <= 3 * se[1]

    def test_chi_square_uniformity(self, t_eq):
        pts = sample_uniform_triangle(100_000, t_eq, rng_for(3, 100_000, 0))
        stat, dof = chi_square_uniform_triangle(pts, t_eq)
        assert dof == 63
        assert stat < CHI2_CRIT_99_DOF63

    def test_chi_square_detects_nonuniform(self, t_eq):
        # sanity: the test has power against a skewed density
        rng = rng_for(4, 50_000, 0)
        pts = sample_density_rejection(
            50_000, t_eq, lambda a: a[:, 0] + 0.05, 1.05, rng
        )
        stat, _ = chi_square_uniform_triangle(pts, t_eq)
        assert stat > CHI2_CRIT_99_DOF63

    def test_rejection_sampler_shifts_mean(self, t_eq):
        rng = rng_for(5, 20_000, 0)
        pts = sample_density_rejection(20_000, t_eq, lambda a: a[:, 0] + 0.05, 1.05, rng)
        assert pts[:, 0].mean() > 0.53  # uniform mean is 0.5


class TestDeterminism:
    def test_identical_configs_identical_tables(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (5, 9), 40, 99, "gamma1_area")
        a = run_config(cfg)
        b = run_config(cfg)
        assert a == b
        assert csv_text(cfg, a) == csv_text(cfg, b)

    def test_replicate_reproducible_in_isolation(self, t_basic):
        spec = ProximityMapSpec.pe(t_basic, 2.0)
        cfg = SimConfig(spec, (7,), 10, 1234, "edge_distance")
        run_config(cfg)  # full run
        # replicate 6 recomputed on its own must match the stream contract
        pts = sample_uniform_triangle(7, t_basic, rng_for(1234, 7, 6))
        d6 = min(p[1] for p in pts)
        pts_again = sample_uniform_triangle(7, t_basic, rng_for(1234, 7, 6))
        assert min(p[1] for p in pts_again) == d6

    def test_different_seeds_differ(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        a = run_config(SimConfig(spec, (5,), 20, 1, "gamma1_area"))
        b = run_config(SimConfig(spec, (5,), 20, 2, "gamma1_area"))
        assert a != b


# SHA-256 of the CSV text, recorded from the polygon-only eta and clip code;
# the closed-form eta and the clip shortcut must reproduce these bytes.
GOLDEN_CSV_DIGESTS = [
    ("eta_pmf", "pe2-centroid-eq", (1, 2, 3, 10, 50), 40, 11, "6d2aab1c527e0f038bb32958b0b8e6337d79b43e35412c08d7b267b8a9644585"),
    ("eta_pmf", "pe2-centroid-eq", (1, 2, 3, 10, 50), 40, 12, "7ff0c53b9fbe898d6383d4c15b6afa0b2bc00bd431dd1eff4bb54351211a4be9"),
    ("eta_pmf", "pe1.3-incenter-basic", (1, 3, 10, 40), 40, 13, "e711017660ad192db1cf764a7f94465defa3f2ce3237a5cfe1b546400fc4de89"),
    ("eta_pmf", "pe1.1-circumcenter-basic", (2, 5, 20), 40, 14, "e3f6b4accce18db8ed9709d82c29c60ab05efdd127886acf111bc576e30b37c9"),
    ("eta_pmf", "cs0.5-centroid-eq", (3, 8), 20, 15, "ed91a373e89aa439dfd3c5d06be06a4acddbb58bf61df0e52f32f1751174619a"),
    ("gamma1_area", "pe2-centroid-eq", (1, 3, 10, 100), 40, 11, "7b73153a1b2b177eef8d4c0d3853a38dc2c9aa5bcf3f48cb05de7ab32c853cae"),
    ("gamma1_area", "pe1.3-incenter-basic", (2, 10, 50), 40, 13, "f065f9d8e9ef09c8acc9758c39a7cedf36f2ac218e90f13c509829529b29ae3e"),
    ("gamma1_area", "pe1.1-circumcenter-basic", (2, 5, 20), 40, 14, "90a9deed12d166a8286f870ec502c20c07060872cb6e228728e0db83d0b325a5"),
    ("gamma1_area", "cs0.5-centroid-eq", (3, 10), 20, 15, "c72967aea483ed08b5e7b77243d7bf4c58154dc8f62fc1a30dc9ede7371f30de"),
]


def _golden_spec(key: str) -> ProximityMapSpec:
    t_eq = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, SQRT3 / 2.0))
    t_basic = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 0.8))
    return {
        "pe2-centroid-eq": ProximityMapSpec.pe(t_eq, 2.0),
        "pe1.3-incenter-basic": ProximityMapSpec.pe(t_basic, 1.3, "incenter"),
        "pe1.1-circumcenter-basic": ProximityMapSpec.pe(t_basic, 1.1, "circumcenter"),
        "cs0.5-centroid-eq": ProximityMapSpec.cs(t_eq, 0.5),
    }[key]


@pytest.mark.parametrize(
    "estimator,key,grid,replicates,seed,digest",
    GOLDEN_CSV_DIGESTS,
    ids=[f"{c[0]}-{c[1]}-seed{c[4]}" for c in GOLDEN_CSV_DIGESTS],
)
def test_golden_csv_digest(estimator, key, grid, replicates, seed, digest):
    cfg = SimConfig(_golden_spec(key), grid, replicates, seed, estimator)
    assert hashlib.sha256(csv_text(cfg, run_config(cfg)).encode()).hexdigest() == digest


class TestEdgeDistance:
    def test_expectation_formula(self, t_basic):
        spec = ProximityMapSpec.pe(t_basic, 2.0)
        cfg = SimConfig(spec, (1, 2, 5), 4000, 2021, "edge_distance")
        for e in estimate_edge_distance(cfg):
            expected = 0.8 / (2 * e.n + 1)
            assert abs(e.mean - expected) <= 3 * e.std_error


class TestGamma1Estimators:
    def test_frac_is_abs_over_area(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (10,), 50, 7, "gamma1_area")
        rows = {e.estimator: e for e in run_config(cfg)}
        assert rows["gamma1_area_frac"].mean == pytest.approx(
            rows["gamma1_area_abs"].mean / t_eq.area()
        )

    def test_gamma1_prob_bound(self, t_eq):
        # P(gamma=1) >= 1 - (3/4)^n - slack for r=2 centroid, and increasing
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (10, 50, 250), 1500, 31415, "gamma1_prob")
        rows = estimate_gamma1_prob(cfg)
        means = [e.mean for e in rows]
        assert means == sorted(means)
        for e in rows:
            assert e.mean >= 1.0 - 0.75**e.n - 0.05

    def test_domination_pmf_supported_on_kappa(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (5,), 300, 9, "domination_pmf")
        rows = run_config(cfg)
        total = sum(e.mean for e in rows)
        assert total == pytest.approx(1.0)
        assert all(e.estimator in ("domination_pmf[1]", "domination_pmf[2]", "domination_pmf[3]") for e in rows)

    def test_eta_pmf_masses_sum_to_one(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (6,), 200, 10, "eta_pmf")
        rows = [e for e in run_config(cfg) if e.estimator.startswith("eta_pmf")]
        assert sum(e.mean for e in rows) == pytest.approx(1.0)

    def test_domination_pmf_cs_can_exceed_three(self, t_eq):
        # central similarity has no fixed bound; small tau at small n spreads
        # the domination number above 3
        spec = ProximityMapSpec.cs(t_eq, 0.15)
        cfg = SimConfig(spec, (8,), 300, 12, "domination_pmf")
        rows = run_config(cfg)
        assert sum(e.mean for e in rows) == pytest.approx(1.0)
        assert any(
            int(e.estimator.split("[")[1].rstrip("]")) >= 4 and e.mean > 0 for e in rows
        )


class TestOneDim:
    def test_n1_exact_half(self):
        rows = one_dim_harness((1,), 200, 77)
        length = next(e for e in rows if e.estimator == "interval_gamma1_length")
        assert length.mean == pytest.approx(0.5)
        assert length.std_error == pytest.approx(0.0, abs=1e-12)

    def test_gamma_pmf_support(self):
        rows = one_dim_harness((6,), 400, 78)
        pmf = {e.estimator: e.mean for e in rows if "pmf" in e.estimator}
        assert pmf["interval_gamma_pmf[1]"] + pmf["interval_gamma_pmf[2]"] == pytest.approx(1.0)

    def test_mean_length(self):
        rows = one_dim_harness((4,), 4000, 79)
        e = next(r for r in rows if r.estimator == "interval_gamma1_length")
        assert abs(e.mean - 0.2) <= 3 * e.std_error


class TestFitRate:
    def test_synthetic_quadratic(self):
        from proxcatch.sim import Estimate

        series = [Estimate("x", n, 3.0 / n**2, 0.0, 1) for n in (10, 20, 40, 80, 160)]
        assert fit_rate(series) == pytest.approx(-2.0)

    def test_constant_series(self):
        from proxcatch.sim import Estimate

        series = [Estimate("x", n, 0.7, 0.0, 1) for n in (10, 20, 40, 80)]
        assert fit_rate(series) == pytest.approx(0.0)

    def test_errors(self):
        from proxcatch.sim import Estimate

        with pytest.raises(ValueError):
            fit_rate([Estimate("x", n, 1.0, 0.0, 1) for n in (1, 2, 3)])
        with pytest.raises(ValueError):
            fit_rate([Estimate("x", n, -1.0, 0.0, 1) for n in (1, 2, 3, 4)])


class TestCsv:
    def test_schema(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        cfg = SimConfig(spec, (4,), 10, 5, "gamma1_area")
        text = csv_text(cfg, run_config(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,family,param,center,n,replicates,mean,stderr,seed"
        assert all(line.split(",")[1] == "pe" for line in lines[1:])
        assert all(line.split(",")[2] == "r=2.0" for line in lines[1:])

    def test_bad_estimator_rejected(self, t_eq):
        spec = ProximityMapSpec.pe(t_eq, 2.0)
        with pytest.raises(ValueError):
            SimConfig(spec, (4,), 10, 5, "nope")


class TestLimitTrends:
    def test_cs_area_decreases_toward_zero(self, t_eq):
        # the central-similarity covering region shrinks to nothing (its
        # superset region is empty for tau < 1)
        spec = ProximityMapSpec.cs(t_eq, 0.8)
        cfg = SimConfig(spec, (1, 3, 10), 400, 606, "gamma1_area")
        rows = {e.n: e for e in run_config(cfg) if e.estimator == "gamma1_area_abs"}
        assert rows[1].mean > rows[3].mean > rows[10].mean
        assert rows[10].mean < 0.02 * rows[1].mean


class TestGeometryInvarianceSmall:
    def test_arc_density_between_frames(self, t_basic, t_eq):
        cfg_b = SimConfig(ProximityMapSpec.pe(t_basic, 2.0), (40,), 300, 404, "arc_density")
        cfg_e = SimConfig(ProximityMapSpec.pe(t_eq, 2.0), (40,), 300, 505, "arc_density")
        (row_b,) = run_config(cfg_b)
        (row_e,) = run_config(cfg_e)
        se = math.hypot(row_b.std_error, row_e.std_error)
        assert abs(row_b.mean - row_e.mean) <= 3 * se
