"""Command-line front end: sampling, digraph and region computation,
simulation campaigns, and SVG figure export.

Exit codes: 0 success, 2 bad usage/configuration, 3 bad input data
(a non-finite coordinate or a point outside the context triangle reports its
row index).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .gamma import gamma1_via_extrema
from .geom import Point2, Triangle, equilateral_triangle
from .pcd import (
    build_pcd,
    arc_density,
    cs_gamma_n_construction,
    default_cs_epsilon,
    domination_number,
    kappa_upper_bound,
)
from .proximity import ProximityMapSpec, in_triangle_mask
from .sim import (
    ESTIMATORS,
    SimConfig,
    fit_rate,
    rng_for,
    run_config,
    sample_uniform_triangle,
    write_csv,
)
from .svg import render_figure


class DataError(Exception):
    """Input-data failure mapped to exit code 3."""


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}: {exc}") from exc
    if len(vals) != count:
        raise ValueError(f"bad {what} {text!r}: expected {count} comma-separated numbers")
    return vals


def _triangle_from_args(args) -> Triangle:
    if getattr(args, "triangle", None):
        v = _parse_floats(args.triangle, 6, "--triangle spec")
        return Triangle(Point2(v[0], v[1]), Point2(v[2], v[3]), Point2(v[4], v[5]))
    if getattr(args, "basic", None):
        c1, c2 = _parse_floats(args.basic, 2, "--basic spec")
        return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(c1, c2))
    return equilateral_triangle()


def _center_from_args(args):
    text = getattr(args, "center", "centroid")
    if text in ("centroid", "circumcenter", "incenter"):
        return text
    x, y = _parse_floats(text, 2, "--center spec")
    return Point2(x, y)


def _spec_from_args(args, t: Triangle) -> ProximityMapSpec:
    family = args.family
    if family == "pe":
        r = math.inf if args.r in ("inf", None) else float(args.r)
        if args.r is None:
            raise ValueError("--r is required for the pe family")
        return ProximityMapSpec.pe(t, r, _center_from_args(args))
    if family == "cs":
        if args.tau is None:
            raise ValueError("--tau is required for the cs family")
        return ProximityMapSpec.cs(t, float(args.tau), _center_from_args(args))
    if family == "spherical":
        return ProximityMapSpec.spherical(t.vertices)
    if family == "arcslice":
        return ProximityMapSpec.arc_slice(t)
    raise ValueError(f"unknown family {family!r}")


def _seed_from_args(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("PCD_SEED")
    if env is not None:
        return int(env)
    raise ValueError("a seed is required: pass --seed or set PCD_SEED")


def _read_points(path: str, t: Triangle, check_triangle: bool) -> np.ndarray:
    """The points of a CSV file as an (n, 2) array.

    Row 0 may be an `x,y` header; blank rows are skipped and columns past the
    second ignored.  The first offending row decides the outcome: a row that
    does not parse, or that the csv module rejects, raises ValueError
    (exit 2); a non-finite coordinate, or
    with `check_triangle` a point outside `t` beyond SAMPLE_TOL, raises
    DataError (exit 3).  Errors name the CSV row.
    """
    coords: list[tuple[float, float]] = []
    rows: list[int] = []
    unparsed = None  # (message, cause) for the first row that does not parse
    row_index = -1
    with open(path, newline="") as fh:
        try:
            for row_index, row in enumerate(csv.reader(fh)):
                if not row or (row_index == 0 and row[0].strip().lower() == "x"):
                    continue
                try:
                    coords.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError) as exc:
                    unparsed = (f"bad point row {row_index}: {row!r} ({exc})", exc)
                    break
                rows.append(row_index)
        except csv.Error as exc:
            unparsed = (f"bad point row {row_index + 1}: {exc}", exc)
    pts = np.array(coords, dtype=float).reshape(-1, 2)
    finite = np.isfinite(pts).all(axis=1)
    ok = finite.copy()
    if check_triangle:
        ok[finite] = in_triangle_mask(t, pts[finite])
    if not ok.all():
        k = int(np.argmin(ok))
        what = "point outside triangle" if finite[k] else "non-finite coordinate"
        raise DataError(f"{what} at row {rows[k]}: {coords[k]}")
    if unparsed is not None:
        raise ValueError(unparsed[0]) from unparsed[1]
    return pts


def _open_out(path: Optional[str]):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_sample(args) -> int:
    t = _triangle_from_args(args)
    seed = _seed_from_args(args)
    pts = sample_uniform_triangle(args.n, t, rng_for(seed, args.n, 0))
    fh, close = _open_out(args.out)
    try:
        fh.write("x,y\n")
        for x, y in pts:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
    finally:
        if close:
            fh.close()
    return 0


def cmd_digraph(args) -> int:
    t = _triangle_from_args(args)
    spec = _spec_from_args(args, t)
    points = _read_points(args.points_file, t, check_triangle=spec.family != "spherical")
    digraph = build_pcd(spec, points)
    kappa = kappa_upper_bound(spec)
    kmax = kappa if isinstance(kappa, int) else None
    result = domination_number(digraph, kmax=kmax)
    line = f"gamma={result.gamma}"
    if digraph.n >= 2:
        line += f" rho={arc_density(digraph)!r}"
    print(line)
    if args.out:
        with open(args.out, "w") as fh:
            digraph.write_json(fh, spec, getattr(args, "seed", None))
    return 0


def cmd_gamma1(args) -> int:
    t = _triangle_from_args(args)
    if args.family not in ("pe", "cs"):
        raise ValueError("analytic region construction supports the pe and cs families")
    spec = _spec_from_args(args, t)
    points = [Point2(*p) for p in _read_points(args.points_file, t, check_triangle=True).tolist()]
    if not points:
        raise ValueError("no points given")
    region = gamma1_via_extrema(spec, points)
    area = region.area()
    if region.point is not None:
        print(f"point {region.point[0]!r},{region.point[1]!r}")
    elif area <= 1e-12:
        print("empty")
    else:
        for i, piece in enumerate(region.pieces):
            if piece.is_empty:
                continue
            verts = " ".join(f"({v[0]:.9g},{v[1]:.9g})" for v in piece.vertices)
            print(f"piece {i}: {verts}")
    print(f"area_abs={area!r} area_frac={area / t.area()!r}")
    if args.svg:
        part = spec.vertex_partition() if spec.family == "pe" else spec.edge_partition()
        with open(args.svg, "w") as fh:
            fh.write(render_figure(t, part, region, points))
    return 0


def cmd_simulate(args) -> int:
    t = _triangle_from_args(args)
    seed = _seed_from_args(args)
    n_grid = tuple(int(v) for v in args.n_grid.split(","))
    estimator = args.estimator.replace("-", "_")
    fit = False
    if estimator == "rate":
        estimator, fit = "gamma1_area", True
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {args.estimator!r}")
    if estimator == "interval_gamma1_length":
        spec = ProximityMapSpec.interval((0.0, 1.0))
    else:
        spec = _spec_from_args(args, t)
    config = SimConfig(spec, n_grid, args.replicates, seed, estimator)
    estimates = run_config(config)
    print(f"# frame: {[tuple(v) for v in t.vertices]}", file=sys.stderr)
    fh, close = _open_out(args.out)
    try:
        write_csv(fh, config, estimates)
    finally:
        if close:
            fh.close()
    if fit:
        slope = fit_rate([e for e in estimates if e.estimator == "gamma1_area_abs"])
        print(f"slope={slope!r}")
    return 0


def cmd_construct(args) -> int:
    if not args.gamma_n:
        raise ValueError("nothing to construct: pass --gamma-n")
    t = _triangle_from_args(args)
    rng = None
    epsilon = None
    if args.epsilon is not None:
        epsilon = float(args.epsilon) if args.epsilon != "default" else default_cs_epsilon(args.n, t)
        rng = rng_for(_seed_from_args(args), args.n, 0)
    points = cs_gamma_n_construction(
        args.n, t, args.tau, _center_from_args(args), epsilon=epsilon, rng=rng
    )
    fh, close = _open_out(args.out)
    try:
        fh.write("x,y\n")
        for x, y in points:
            fh.write(f"{x!r},{y!r}\n")
    finally:
        if close:
            fh.close()
    return 0


def _add_triangle_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--triangle", help="x1,y1,x2,y2,x3,y3")
    g.add_argument("--basic", help="c1,c2 for the triangle ((0,0),(1,0),(c1,c2))")
    g.add_argument("--equilateral", action="store_true", help="unit equilateral triangle (default)")


def _add_family_opts(p: argparse.ArgumentParser, families: Sequence[str]) -> None:
    p.add_argument("--family", required=True, choices=list(families))
    p.add_argument("--r", help="scale for the pe family (>= 1 or 'inf')")
    p.add_argument("--tau", type=float, help="scale for the cs family (in [0, 1])")
    p.add_argument("--center", default="centroid", help="centroid|circumcenter|incenter|x,y")


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    """The `proxcatch` parser; `defaults` replace each subcommand's option
    defaults, so flags given on the command line still win."""
    parser = argparse.ArgumentParser(
        prog="proxcatch",
        description="Proximity catch digraphs: sampling, regions, digraphs, simulations",
    )
    parser.add_argument(
        "--config",
        help="JSON object of default option values for the subcommand; "
        "explicit flags win and an unknown key exits 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample uniform points in a triangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_triangle_opts(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("digraph", help="build the digraph of a points file")
    _add_family_opts(p, ("pe", "cs", "spherical", "arcslice"))
    p.add_argument("--points-file", required=True)
    p.add_argument("--out", help="JSON output path")
    p.add_argument("--seed", type=int, help="recorded in the JSON output")
    _add_triangle_opts(p)
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser("gamma1", help="covering region of a points file")
    _add_family_opts(p, ("pe", "cs"))
    p.add_argument("--points-file", required=True)
    p.add_argument("--svg", help="write an SVG overlay figure")
    _add_triangle_opts(p)
    p.set_defaults(func=cmd_gamma1)

    p = sub.add_parser("simulate", help="run a Monte Carlo estimator")
    estimators = sorted(ESTIMATORS) + ["rate"]
    p.add_argument("--estimator", required=True, metavar="NAME", help="|".join(estimators))
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--family", default="pe", choices=("pe", "cs"))
    p.add_argument("--r", default="2", help="scale for the pe family (default 2)")
    p.add_argument("--tau", type=float)
    p.add_argument("--center", default="centroid")
    _add_triangle_opts(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("construct", help="points realizing domination number n (cs family)")
    p.add_argument("--gamma-n", action="store_true", help="emit the gamma = n construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--center", default="centroid")
    p.add_argument("--epsilon", help="jitter radius, or 'default' for base/(8n)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_triangle_opts(p)
    p.set_defaults(func=cmd_construct)
    if defaults:
        for p in sub.choices.values():
            p.set_defaults(**defaults)
    return parser


def _config_defaults(args) -> dict:
    """The --config file's values keyed by option name; each key must name an
    option of the chosen subcommand."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {args.config!r} must hold a JSON object")
    options = set(vars(args)) - {"config", "command", "func"}
    defaults = {}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise ValueError(f"unknown config key {key!r} for the {args.command} command")
        defaults[attr] = value
    return defaults


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_config_defaults(args)).parse_args(argv)
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
