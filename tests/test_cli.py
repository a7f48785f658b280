import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import proxcatch
from proxcatch.cli import main
from reference_pcd import arcs_of


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN_SAMPLE = """x,y
0.41198817029637563,0.5845393711069563
0.0903736754987316,0.07892856307781614
0.3838666756612791,0.035399731417740846
"""


class TestSample:
    def test_golden_three_points(self, capsys):
        code, out, _ = run_cli(["sample", "--n", "3", "--seed", "20259", "--equilateral"], capsys)
        assert code == 0
        assert out == GOLDEN_SAMPLE

    def test_zero_points_header_only(self, capsys):
        code, out, _ = run_cli(["sample", "--n", "0", "--seed", "1"], capsys)
        assert code == 0
        assert out == "x,y\n"

    def test_points_inside_triangle(self, tmp_path, capsys):
        out_path = tmp_path / "pts.csv"
        code, _, _ = run_cli(
            ["sample", "--n", "50", "--seed", "5", "--basic", "0.3,0.8", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        from proxcatch import Point2, Triangle

        t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0.3, 0.8))
        for line in out_path.read_text().splitlines()[1:]:
            x, y = map(float, line.split(","))
            assert t.contains(Point2(x, y), 1e-12)

    def test_bad_triangle_spec_exit_2(self, capsys):
        code, _, err = run_cli(["sample", "--n", "3", "--seed", "1", "--triangle", "0,0,1,1"], capsys)
        assert code == 2

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PCD_SEED", "20259")
        code, out, _ = run_cli(["sample", "--n", "3", "--equilateral"], capsys)
        assert code == 0
        assert out == GOLDEN_SAMPLE

    def test_missing_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("PCD_SEED", raising=False)
        code, _, _ = run_cli(["sample", "--n", "3"], capsys)
        assert code == 2


class TestDigraph:
    def test_construction_gives_gamma_n(self, tmp_path, capsys):
        pts = tmp_path / "c.csv"
        run_cli(["construct", "--gamma-n", "--n", "4", "--tau", "1", "--out", str(pts)], capsys)
        out_json = tmp_path / "d.json"
        code, out, _ = run_cli(
            ["digraph", "--family", "cs", "--tau", "1", "--points-file", str(pts), "--out", str(out_json)],
            capsys,
        )
        assert code == 0
        assert out.startswith("gamma=4 rho=0.0")
        data = json.loads(out_json.read_text())
        assert data["n"] == 4 and data["arcs"] == []
        assert data["spec"]["family"] == "cs"

    def test_round_trip_same_gamma_rho(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        run_cli(["sample", "--n", "12", "--seed", "9", "--out", str(pts)], capsys)
        out_json = tmp_path / "d.json"
        code, out1, _ = run_cli(
            ["digraph", "--family", "pe", "--r", "2", "--points-file", str(pts), "--out", str(out_json)],
            capsys,
        )
        assert code == 0
        from proxcatch import PcdDigraph, arc_density, domination_number

        data = json.loads(out_json.read_text())
        d = PcdDigraph.from_json_dict(data)
        gamma = domination_number(d, kmax=3).gamma
        rho = arc_density(d)
        assert out1.strip() == f"gamma={gamma} rho={rho!r}"

    def test_json_arcs_row_major(self, tmp_path, capsys):
        from proxcatch import ProximityMapSpec, build_pcd, equilateral_triangle

        pts = tmp_path / "p.csv"
        run_cli(["sample", "--n", "60", "--seed", "3", "--out", str(pts)], capsys)
        out_json = tmp_path / "d.json"
        code, _, _ = run_cli(
            ["digraph", "--family", "pe", "--r", "1.5", "--points-file", str(pts),
             "--seed", "3", "--out", str(out_json)],
            capsys,
        )
        assert code == 0
        spec = ProximityMapSpec.pe(equilateral_triangle(), 1.5)
        adj = build_pcd(spec, np.loadtxt(pts, delimiter=",", skiprows=1)).adj
        arcs = arcs_of(adj)
        assert arcs
        old = {"n": 60, "arcs": sorted(map(list, arcs)), "spec": spec.describe(), "seed": 3}
        assert out_json.read_text() == json.dumps(old, indent=1) + "\n"

    def test_complete_digraph_rho_one(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        # points well inside the medial triangle of T_e: superset region for r=2
        pts.write_text("x,y\n0.5,0.4\n0.45,0.38\n0.55,0.42\n0.5,0.33\n")
        code, out, _ = run_cli(
            ["digraph", "--family", "pe", "--r", "2", "--points-file", str(pts)], capsys
        )
        assert code == 0
        assert "gamma=1" in out and "rho=1.0" in out

    def test_single_point_no_rho(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.4\n")
        code, out, _ = run_cli(
            ["digraph", "--family", "pe", "--r", "2", "--points-file", str(pts)], capsys
        )
        assert code == 0
        assert out.strip() == "gamma=1"

    def test_point_outside_exit_3(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.4\n2.5,2.5\n")
        code, _, err = run_cli(
            ["digraph", "--family", "pe", "--r", "2", "--points-file", str(pts)], capsys
        )
        assert code == 3
        assert "row 2" in err

    def test_spherical_family_allows_outside(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.4\n2.5,2.5\n")
        code, out, _ = run_cli(
            ["digraph", "--family", "spherical", "--points-file", str(pts)], capsys
        )
        assert code == 0


class TestGamma1Cmd:
    def test_hexagon_piece_structure(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.3\n")
        code, out, _ = run_cli(
            ["gamma1", "--family", "pe", "--r", "2", "--points-file", str(pts)], capsys
        )
        assert code == 0
        assert "area_abs=" in out and "area_frac=" in out
        # merged region is the paper's hexagon; verify via the library
        from proxcatch import Point2, ProximityMapSpec, equilateral_triangle, gamma1_point

        g = gamma1_point(ProximityMapSpec.pe(equilateral_triangle(), 2.0), Point2(0.5, 0.3))
        merged = g.merged()
        assert merged is not None and len(merged) == 6

    def test_empty_region_prints_empty(self, tmp_path, capsys):
        from proxcatch import core_triangle, equilateral_triangle

        t = equilateral_triangle()
        core = core_triangle(t, 1.2)
        cx = sum(v.x for v in core.vertices) / 3.0
        cy = sum(v.y for v in core.vertices) / 3.0
        pts = tmp_path / "p.csv"
        rows = ["x,y"] + [f"0.{k},0.05" for k in range(1, 9)] + ["0.5,0.8", "0.12,0.1", "0.88,0.1"]
        pts.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            [
                "gamma1",
                "--family",
                "pe",
                "--r",
                "1.2",
                "--center",
                f"{cx},{cy}",
                "--points-file",
                str(pts),
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "empty"

    def test_cs_family_region(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.3\n0.4,0.2\n")
        code, out, _ = run_cli(
            ["gamma1", "--family", "cs", "--tau", "1", "--points-file", str(pts)], capsys
        )
        assert code == 0
        assert "area_abs=" in out
        assert any(line.startswith("piece") for line in out.splitlines())

    def test_svg_well_formed_and_deterministic(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        run_cli(["sample", "--n", "6", "--seed", "3", "--out", str(pts)], capsys)
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        for svg in (svg1, svg2):
            code, _, _ = run_cli(
                ["gamma1", "--family", "pe", "--r", "2", "--points-file", str(pts), "--svg", str(svg)],
                capsys,
            )
            assert code == 0
        root = ET.parse(svg1).getroot()
        assert root.tag.endswith("svg")
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(paths) >= 4  # triangle + 3 cells (+ region pieces)
        assert len(circles) == 6
        assert svg1.read_bytes() == svg2.read_bytes()


class TestSimulateCmd:
    def test_edge_distance_matches_formula(self, tmp_path, capsys):
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(
            [
                "simulate",
                "--estimator",
                "edge_distance",
                "--n-grid",
                "1,5",
                "--replicates",
                "3000",
                "--seed",
                "11",
                "--basic",
                "0.3,0.8",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "estimator,family,param,center,n,replicates,mean,stderr,seed"
        for line in lines[1:]:
            cols = line.split(",")
            n, mean, se = int(cols[4]), float(cols[6]), float(cols[7])
            assert abs(mean - 0.8 / (2 * n + 1)) <= 3 * se

    def test_determinism_byte_for_byte(self, tmp_path, capsys):
        texts = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            run_cli(
                [
                    "simulate",
                    "--estimator",
                    "gamma1_area",
                    "--n-grid",
                    "5,10",
                    "--replicates",
                    "50",
                    "--seed",
                    "21",
                    "--out",
                    str(out_csv),
                ],
                capsys,
            )
            texts.append(out_csv.read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_estimator_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--estimator", "bogus", "--n-grid", "5", "--replicates", "5", "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_rate_estimator_prints_slope(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code, out, err = run_cli(
            [
                "simulate",
                "--estimator",
                "rate",
                "--n-grid",
                "20,40,80,160",
                "--replicates",
                "40",
                "--seed",
                "7",
                "--family",
                "pe",
                "--r",
                "1.5",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("slope=")
        assert "# frame:" in err

    def test_interval_estimator(self, tmp_path, capsys):
        out_csv = tmp_path / "i.csv"
        code, _, _ = run_cli(
            [
                "simulate",
                "--estimator",
                "interval_gamma1_length",
                "--n-grid",
                "4",
                "--replicates",
                "2000",
                "--seed",
                "3",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        length_row = next(r for r in rows if r.startswith("interval_gamma1_length"))
        cols = length_row.split(",")
        assert abs(float(cols[6]) - 0.2) <= 3 * float(cols[7])


class TestConstructCmd:
    def test_perturbed_variant_still_gamma_n(self, tmp_path, capsys):
        pts = tmp_path / "c.csv"
        code, _, _ = run_cli(
            [
                "construct",
                "--gamma-n",
                "--n",
                "4",
                "--tau",
                "1",
                "--epsilon",
                "default",
                "--seed",
                "12",
                "--out",
                str(pts),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["digraph", "--family", "cs", "--tau", "1", "--points-file", str(pts)], capsys
        )
        assert code == 0
        assert out.startswith("gamma=4")

    def test_n1(self, capsys):
        code, out, _ = run_cli(["construct", "--gamma-n", "--n", "1", "--tau", "1"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 2


class TestConfigFile:
    def test_defaults_from_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 20259, "equilateral": True}))
        code, out, _ = run_cli(["--config", str(cfg), "sample", "--n", "3"], capsys)
        assert code == 0
        assert out == GOLDEN_SAMPLE

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        _, plain, _ = run_cli(["sample", "--n", "2", "--seed", "0"], capsys)
        code, out, _ = run_cli(["--config", str(cfg), "sample", "--n", "2", "--seed", "0"], capsys)
        assert code == 0
        assert out == plain

    def test_config_overrides_parser_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "3", "seed": 2}))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["--config", str(cfg), "simulate", "--estimator", "arc_density", "--n-grid", "5",
             "--replicates", "3", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert row[2] == "r=3.0"

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(["--config", str(cfg), "sample", "--n", "2", "--seed", "0"], capsys)
        assert code == 2
        assert "bogus" in err


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as this process, whatever put it on sys.path
        src = os.path.dirname(os.path.dirname(proxcatch.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "proxcatch.cli", "sample", "--n", "2", "--seed", "4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,y\n")
