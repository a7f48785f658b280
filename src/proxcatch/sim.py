"""Seeded Monte Carlo harness for the proximity-digraph quantities.

Reproducibility contract: the replicate stream for (master seed, sample size
n, replicate index k) is ``numpy.random.default_rng(SeedSequence(seed,
spawn_key=(n, k)))``.  Replicates are therefore reproducible in isolation and
independent of evaluation order; aggregation stores all per-replicate values
and reduces them with numpy's pairwise summation, so identical configs give
bit-identical tables.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gamma import (
    Gamma1Region,
    edge_extrema,
    eta_value,
    gamma1_from_extrema,
    gamma1_interval_1d,
)
from .geom import Point2, Triangle, barycentric_coeffs
from .pcd import (
    build_pcd,
    domination_number,
    interval_domination,
    kappa_upper_bound,
)
from .proximity import ProximityMapSpec, adjacency, bary_coords

# 0.99 quantile of the chi-square distribution with 63 degrees of freedom,
# for the 64-cell uniformity test.
CHI2_CRIT_99_DOF63 = 92.01002361413214


@dataclass(frozen=True)
class Estimate:
    estimator: str
    n: int
    mean: float
    std_error: float
    replicates: int


@dataclass(frozen=True)
class SimConfig:
    spec: ProximityMapSpec
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    estimator: str

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes must be positive")
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {sorted(ESTIMATORS)}"
            )


def rng_for(seed: int, n: int, replicate: int) -> np.random.Generator:
    """The documented per-replicate stream split of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, replicate)))


def sample_uniform_triangle(n: int, t: Triangle, rng: np.random.Generator) -> np.ndarray:
    """n iid uniform points: u1, u2 uniform, reflected when u1 + u2 > 1."""
    u = rng.random((n, 2))
    over = u.sum(axis=1) > 1.0
    u[over] = 1.0 - u[over]
    v0, v1, v2 = (np.asarray(v) for v in t.vertices)
    return v0 + u[:, :1] * (v1 - v0) + u[:, 1:] * (v2 - v0)


def sample_density_rejection(
    n: int,
    t: Triangle,
    density: Callable[[np.ndarray], np.ndarray],
    bound: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rejection sampler for a density on the triangle (relative to uniform).

    `density` maps an (m, 2) array to nonnegative values; `bound` must be an
    upper bound for it (the envelope constant).
    """
    if bound <= 0.0:
        raise ValueError("envelope bound must be positive")
    out = np.empty((0, 2))
    while len(out) < n:
        m = max(2 * (n - len(out)), 16)
        cand = sample_uniform_triangle(m, t, rng)
        accept = rng.random(m) * bound <= density(cand)
        out = np.vstack([out, cand[accept]])
    return out[:n]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def _emit(estimator: str, n: int, values: np.ndarray, replicates: int) -> Estimate:
    mean, se = _mean_se(values)
    return Estimate(estimator, n, mean, se, replicates)


def _replicate_gamma1(spec: ProximityMapSpec, pts: np.ndarray) -> Gamma1Region:
    return gamma1_from_extrema(spec, edge_extrema(pts, spec.triangle).points)


def estimate_edge_distance(config: SimConfig) -> list[Estimate]:
    """Mean distance from the sample to the edge between the first two
    vertices (the base of a basic triangle)."""
    t = config.spec.triangle
    coeffs = barycentric_coeffs(t)
    height = t.edge_height(2)
    out = []
    for n in config.n_grid:
        vals = np.empty(config.replicates)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            beta = coeffs[2][0] * pts[:, 0] + coeffs[2][1] * pts[:, 1] + coeffs[2][2]
            vals[k] = beta.min() * height
        out.append(_emit("edge_distance", n, vals, config.replicates))
    return out


def estimate_gamma1_area(config: SimConfig) -> list[Estimate]:
    """Mean area of the sample's covering region, absolute and as a fraction
    of the context triangle's area."""
    spec = config.spec
    t = spec.triangle
    total = t.area()
    out = []
    for n in config.n_grid:
        vals = np.empty(config.replicates)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            vals[k] = _replicate_gamma1(spec, pts).area()
        out.append(_emit("gamma1_area_abs", n, vals, config.replicates))
        out.append(_emit("gamma1_area_frac", n, vals / total, config.replicates))
    return out


def estimate_gamma1_prob(config: SimConfig) -> list[Estimate]:
    """P(domination number = 1), via sample points falling in the covering region."""
    spec = config.spec
    t = spec.triangle
    out = []
    for n in config.n_grid:
        vals = np.empty(config.replicates)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            region = _replicate_gamma1(spec, pts)
            vals[k] = float(any(region.contains(Point2(*p)) for p in pts))
        out.append(_emit("gamma1_prob", n, vals, config.replicates))
    return out


def estimate_arc_density(config: SimConfig) -> list[Estimate]:
    spec = config.spec
    t = spec.triangle
    out = []
    for n in config.n_grid:
        if n < 2:
            raise ValueError("arc density needs n >= 2")
        vals = np.empty(config.replicates)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            adj = adjacency(spec, pts)
            vals[k] = (int(adj.sum()) - int(np.trace(adj))) / (n * (n - 1))
        out.append(_emit("arc_density", n, vals, config.replicates))
    return out


def estimate_domination_pmf(config: SimConfig) -> list[Estimate]:
    """Empirical pmf of the domination number (exact search per replicate)."""
    spec = config.spec
    t = spec.triangle
    kappa = kappa_upper_bound(spec)
    kmax = kappa if isinstance(kappa, int) else None
    out = []
    for n in config.n_grid:
        if kmax is None and n > 24:
            raise ValueError("exact domination pmf needs n <= 24 for this family")
        gammas = np.empty(config.replicates, dtype=int)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            d = build_pcd(spec, pts)
            gammas[k] = domination_number(d, kmax=kmax).gamma
        for g in range(1, int(gammas.max()) + 1):
            out.append(
                _emit(f"domination_pmf[{g}]", n, (gammas == g).astype(float), config.replicates)
            )
    return out


def estimate_eta_pmf(config: SimConfig) -> list[Estimate]:
    """Empirical pmf of the minimum active-set size, plus the probability of
    three distinct edge extrema."""
    spec = config.spec
    t = spec.triangle
    out = []
    for n in config.n_grid:
        etas = np.empty(config.replicates, dtype=int)
        distinct = np.empty(config.replicates)
        for k in range(config.replicates):
            pts = sample_uniform_triangle(n, t, rng_for(config.seed, n, k))
            distinct[k] = float(edge_extrema(pts, t).distinct_count == 3)
            etas[k] = eta_value(spec, pts).eta
        for e in range(1, int(etas.max()) + 1):
            out.append(_emit(f"eta_pmf[{e}]", n, (etas == e).astype(float), config.replicates))
        out.append(_emit("distinct_extrema_prob", n, distinct, config.replicates))
    return out


def one_dim_harness(n_grid: Sequence[int], replicates: int, seed: int) -> list[Estimate]:
    """1-D harness with anchors {0, 1}: mean covering-interval length and the
    empirical pmf of the domination number (always supported on {1, 2})."""
    out = []
    for n in n_grid:
        lengths = np.empty(replicates)
        gammas = np.empty(replicates, dtype=int)
        for k in range(replicates):
            xs = rng_for(seed, n, k).random(n)
            xs = np.clip(xs, 1e-12, 1.0 - 1e-12)
            lo, hi = gamma1_interval_1d(xs.tolist())
            lengths[k] = hi - lo
            gammas[k] = interval_domination(xs.tolist()).gamma
        out.append(_emit("interval_gamma1_length", n, lengths, replicates))
        for g in (1, 2):
            out.append(_emit(f"interval_gamma_pmf[{g}]", n, (gammas == g).astype(float), replicates))
        if int(gammas.max()) > 2:
            raise AssertionError("1-D domination number exceeded 2")
    return out


def _interval_dispatch(config: SimConfig) -> list[Estimate]:
    return one_dim_harness(config.n_grid, config.replicates, config.seed)


ESTIMATORS: dict[str, Callable[[SimConfig], list[Estimate]]] = {
    "edge_distance": estimate_edge_distance,
    "gamma1_area": estimate_gamma1_area,
    "gamma1_prob": estimate_gamma1_prob,
    "arc_density": estimate_arc_density,
    "domination_pmf": estimate_domination_pmf,
    "eta_pmf": estimate_eta_pmf,
    "interval_gamma1_length": _interval_dispatch,
}


def run_config(config: SimConfig) -> list[Estimate]:
    return ESTIMATORS[config.estimator](config)


def fit_rate(series: Sequence[Estimate]) -> float:
    """Least-squares slope of log(mean) against log(n)."""
    pts = sorted({(e.n, e.mean) for e in series})
    if len(pts) < 4:
        raise ValueError("rate fit needs at least 4 distinct sample sizes")
    if any(m <= 0.0 for _, m in pts):
        raise ValueError("rate fit needs positive means")
    ns = np.log([p[0] for p in pts])
    ms = np.log([p[1] for p in pts])
    return float(np.polyfit(ns, ms, 1)[0])


def write_csv(fh, config: SimConfig, estimates: Sequence[Estimate]) -> None:
    """Fixed-schema table: estimator,family,param,center,n,replicates,mean,stderr,seed."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["estimator", "family", "param", "center", "n", "replicates", "mean", "stderr", "seed"]
    )
    spec = config.spec
    for e in estimates:
        writer.writerow(
            [
                e.estimator,
                spec.family,
                spec.param_label(),
                spec.center_label(),
                e.n,
                e.replicates,
                repr(e.mean),
                repr(e.std_error),
                config.seed,
            ]
        )


def csv_text(config: SimConfig, estimates: Sequence[Estimate]) -> str:
    buf = io.StringIO()
    write_csv(buf, config, estimates)
    return buf.getvalue()


def chi_square_uniform_triangle(points: np.ndarray, t: Triangle, k: int = 8) -> tuple[float, int]:
    """Chi-square statistic for uniformity on the k^2-cell barycentric grid.

    Cells are the k^2 congruent subtriangles at subdivision depth k (upward
    cells have floor coordinates summing to k-1, downward to k-2); returns
    (statistic, degrees of freedom = k^2 - 1).
    """
    pts = np.asarray(points, dtype=float)
    b = bary_coords(t, pts)
    f = np.floor(k * b).astype(int)
    f = np.clip(f, 0, k - 1)
    cells: dict[tuple[int, int, int, int], int] = {}
    for i in range(k):
        for j in range(k - i):
            m = k - 1 - i - j
            if m >= 0:
                cells[(i, j, m, 0)] = 0
            if k - 2 - i - j >= 0:
                cells[(i, j, k - 2 - i - j, 1)] = 0
    s = f.sum(axis=0)
    for col in range(pts.shape[0]):
        fi = [int(f[0, col]), int(f[1, col]), int(f[2, col])]
        while sum(fi) > k - 1:  # exact-boundary rounding (measure zero)
            fi[fi.index(max(fi))] -= 1
        orient = 0 if sum(fi) == k - 1 else 1
        key = (fi[0], fi[1], fi[2], orient)
        if key not in cells:
            key = (fi[0], fi[1], fi[2], 0)
        cells[key] += 1
    counts = np.array(list(cells.values()), dtype=float)
    expected = pts.shape[0] / (k * k)
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, k * k - 1
