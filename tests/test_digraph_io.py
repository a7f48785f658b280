"""The `digraph --out` JSON writer and the points-file reader.

`PcdDigraph.write_json` streams the JSON that `json.dump(d.to_json_dict(...),
indent=1)` used to produce; the tests pin it to those bytes.  The reader
(`cli._read_points`) is fuzzed through `proxcatch digraph`.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcatch import PcdDigraph, Point2, ProximityMapSpec, Triangle, equilateral_triangle
from proxcatch.cli import main
from proxcatch.proximity import SAMPLE_TOL, in_triangle_mask

from conftest import random_interior_point, random_triangle


BASIC = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 0.8))


def _stdlib_json(d: PcdDigraph, spec, seed) -> str:
    fh = io.StringIO()
    json.dump(d.to_json_dict(spec, seed), fh, indent=1)
    fh.write("\n")
    return fh.getvalue()


def _streamed_json(d: PcdDigraph, spec, seed) -> str:
    fh = io.StringIO()
    d.write_json(fh, spec, seed)
    return fh.getvalue()


def _specs(t: Triangle) -> list:
    return [
        None,
        ProximityMapSpec.pe(t, 1.5),
        ProximityMapSpec.pe(t, math.inf, "incenter"),
        ProximityMapSpec.pe(t, 2.0, Point2(0.41, 0.3)),
        ProximityMapSpec.cs(t, 0.5),
        ProximityMapSpec.cs(t, 1.0, "incenter"),
        ProximityMapSpec.spherical(t.vertices),
        ProximityMapSpec.arc_slice(t),
    ]


SPECS = _specs(equilateral_triangle()) + _specs(BASIC)[1:]


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "empty", "complete"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        adj = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    else:
        adj = np.full((n, n), kind == "complete")
    np.fill_diagonal(adj, False)
    return PcdDigraph(n, adj)


class TestWriteJson:
    @settings(max_examples=200, deadline=None)
    @given(
        d=digraphs(),
        spec=st.sampled_from(SPECS),
        seed=st.none() | st.integers(-(2**63), 2**63),
    )
    def test_bytes_equal_stdlib_dump(self, d, spec, seed):
        assert _streamed_json(d, spec, seed) == _stdlib_json(d, spec, seed)

    def test_no_arcs_stay_an_empty_list(self):
        text = _streamed_json(PcdDigraph(3, np.zeros((3, 3), dtype=bool)), None, None)
        assert text == '{\n "n": 3,\n "arcs": [],\n "spec": null,\n "seed": null\n}\n'

    def test_one_write_per_row(self):
        n = 40
        adj = ~np.eye(n, dtype=bool)
        adj[5] = False  # a row without arcs writes nothing
        writes = []

        class Recorder:
            def write(self, s):
                writes.append(s)

        PcdDigraph(n, adj).write_json(Recorder(), SPECS[1], 7)
        assert len(writes) == (n - 1) + 3
        assert "".join(writes) == _stdlib_json(PcdDigraph(n, adj), SPECS[1], 7)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        adj = rng.random((25, 25)) < 0.3
        np.fill_diagonal(adj, False)
        d = PcdDigraph(25, adj)
        assert PcdDigraph.from_json_dict(json.loads(_streamed_json(d, SPECS[2], None))) == d


def _points_csv(seed: int, n: int) -> str:
    """n uniform points in the unit equilateral triangle, one `x,y` row each."""
    u = np.random.default_rng(seed).random((n, 2))
    over = u.sum(axis=1) > 1.0
    u[over] = 1.0 - u[over]
    xs = u[:, 0] + 0.5 * u[:, 1]
    ys = (math.sqrt(3.0) / 2.0) * u[:, 1]
    return "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGoldenDigest:
    # SHA-256 of `digraph --out`, recorded with json.dump(to_json_dict(...), indent=1)
    @pytest.mark.parametrize(
        "args, seed, n, line, digest",
        [
            (["--family", "pe", "--r", "1.5", "--seed", "3"], 1, 60,
             "gamma=2 rho=0.3847457627118644",
             "c2161d5082d0bc9ddcff44e92a20dc3da0bb9382c31b4a9319dc99b7501e8bb3"),
            (["--family", "pe", "--r", "inf", "--center", "incenter"], 2, 30,
             "gamma=1 rho=1.0",
             "0cdbafe1c7d6a09e92aa47cdad8d99f091e0dd7b62d868e68477c849c02aec1b"),
            (["--family", "cs", "--tau", "0.5"], 3, 20,
             "gamma=14 rho=0.02368421052631579",
             "5ea4ed448698977d2d17f7eb84eac76c48746b6aae188cc02ae4f2bf9ada64e9"),
            (["--family", "spherical", "--seed", "0"], 4, 20,
             "gamma=2 rho=0.5710526315789474",
             "e044be8cacba4033dbaf3655399ce69da0e8b836b19cb93d8aa74907265b3e1f"),
            (["--family", "arcslice"], 5, 20,
             "gamma=2 rho=0.4789473684210526",
             "a7dd498de4277cfa23b53faef99b99b3dd0df79e75edae0f53360494e34b0142"),
        ],
    )
    def test_digraph_out_digest(self, tmp_path, args, seed, n, line, digest):
        pts, out = tmp_path / "p.csv", tmp_path / "d.json"
        pts.write_text(_points_csv(seed, n))
        code, stdout, _ = _run(["digraph", *args, "--points-file", str(pts), "--out", str(out)])
        assert code == 0
        assert stdout.strip() == line
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _band_point(t: Triangle, rng: np.random.Generator) -> Point2:
    """A point whose beta_i is -SAMPLE_TOL, or that jittered by 1e-16 to 1e-8."""
    i = int(rng.integers(3))
    off = -SAMPLE_TOL + float(rng.choice([0.0, -1.0, 1.0])) * 10 ** rng.uniform(-16.0, -8.0)
    return t.point_at(np.insert(rng.dirichlet([1.0, 1.0]) * (1.0 - off), i, off))


class TestInTriangleMask:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
    def test_matches_scalar_contains(self, seed, n):
        rng = np.random.default_rng(seed)
        t = equilateral_triangle() if rng.random() < 0.25 else random_triangle(rng)
        pts = np.array([_band_point(t, rng) for _ in range(n)]).reshape(-1, 2)
        expected = [t.contains(Point2(*p), SAMPLE_TOL) for p in pts.tolist()]
        assert in_triangle_mask(t, pts).tolist() == expected

    def test_nan_rows_are_outside(self):
        t = equilateral_triangle()
        pts = np.array([[math.nan, 0.1], [0.5, math.nan], [0.5, 0.3]])
        assert in_triangle_mask(t, pts).tolist() == [False, False, True]


FAMILIES = {
    "pe": ["--family", "pe", "--r", "1.5"],
    "pe-inf": ["--family", "pe", "--r", "inf"],
    "cs": ["--family", "cs", "--tau", "0.5"],
    "spherical": ["--family", "spherical"],
    "arcslice": ["--family", "arcslice"],
}
ROW_KINDS = ("inside", "vertex", "edge", "cell_boundary", "band", "outside",
             "non_finite", "blank", "unparsable", "duplicate")


def _row(kind: str, t: Triangle, rng: np.random.Generator, previous: list[str]) -> str:
    """The text of one CSV row of the given kind."""
    if kind == "blank":
        return ""
    if kind == "unparsable":
        return str(rng.choice(["foo,1", "0.5", "0.5;0.3", ",0.2"]))
    if kind == "duplicate" and previous:
        return previous[int(rng.integers(len(previous)))]
    if kind == "non_finite":
        bad = str(rng.choice(["nan", "inf", "-inf", "NaN", "Infinity"]))
        p = [repr(v) for v in random_interior_point(t, rng)]
        p[int(rng.integers(2))] = bad
        return ",".join(p)
    if kind == "vertex":
        p = t.vertices[int(rng.integers(3))]
    elif kind == "edge":
        p = t.point_at(np.insert(rng.dirichlet([1.0, 1.0]), int(rng.integers(3)), 0.0))
    elif kind == "cell_boundary":
        # from the centroid M to an edge midpoint (PE cells) or a vertex (CS cells)
        m = np.mean(t.vertices, axis=0)
        i = int(rng.integers(3))
        end = np.add(*t.edge(i)) / 2.0 if rng.random() < 0.5 else np.asarray(t.vertices[i])
        p = m + rng.choice([0.0, rng.uniform(), 1.0]) * (end - m)
    elif kind == "band":
        p = _band_point(t, rng)
    elif kind == "outside":
        p = t.point_at(rng.choice([-1.0, 2.0]) * rng.dirichlet([1.0, 1.0, 1.0]) + [0.0, 0.0, 0.1])
    else:
        p = random_interior_point(t, rng, margin=0.0)
    text = f"{float(p[0])!r},{float(p[1])!r}"
    return text + ",extra" if rng.random() < 0.2 else text


def _expected(rows: list[str], t: Triangle, check_triangle: bool) -> tuple[int, int]:
    """(exit code, row index of the first offending row or -1)."""
    n = 0
    for i, text in enumerate(rows):
        if not text or (i == 0 and text == "x,y"):
            continue
        fields = text.split(",")
        try:
            x, y = float(fields[0]), float(fields[1])
        except (ValueError, IndexError):
            return 2, i
        if not (math.isfinite(x) and math.isfinite(y)):
            return 3, i
        if check_triangle and not t.contains(Point2(x, y), SAMPLE_TOL):
            return 3, i
        n += 1
    return (0, -1) if n else (2, -1)


class TestDigraphFuzz:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(sorted(FAMILIES)),
        basic=st.booleans(),
        header=st.booleans(),
        kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=12),
        weights=st.sampled_from(["mixed", "valid"]),
    )
    def test_exit_codes_rows_and_determinism(self, seed, family, basic, header, kinds, weights):
        rng = np.random.default_rng(seed)
        t = BASIC if basic else equilateral_triangle()
        if weights == "valid":  # mostly files that parse, so exit 0 is common
            valid = ("inside", "vertex", "edge", "cell_boundary", "band", "blank", "duplicate")
            kinds = [k if k in valid else "inside" for k in kinds]
        rows = ["x,y"] if header else []
        for kind in kinds:
            rows.append(_row(kind, t, rng, [r for r in rows[int(header):] if r]))
        code, row = _expected(rows, t, check_triangle=family != "spherical")
        triangle = ["--basic", "0.3,0.8"] if basic else ["--equilateral"]
        with tempfile.TemporaryDirectory() as d:
            pts = os.path.join(d, "p.csv")
            with open(pts, "w") as fh:
                fh.write("".join(r + "\n" for r in rows))
            runs = []
            for k in range(2):
                out = os.path.join(d, f"d{k}.json")
                argv = ["digraph", *FAMILIES[family], *triangle, "--points-file", pts, "--out", out]
                got = _run(argv)
                data = open(out, "rb").read() if os.path.exists(out) else None
                runs.append((got, data))
        (got_code, stdout, stderr), data = runs[0]
        assert runs[0] == runs[1]
        assert got_code == code, (rows, stderr)
        if row >= 0:
            assert re.search(rf"\brow {row}: ", stderr), (rows, stderr)
        if code == 0:
            assert stdout.startswith("gamma=")
            digraph = PcdDigraph.from_json_dict(json.loads(data))
            assert digraph.n == sum(1 for i, r in enumerate(rows) if r and not (i == 0 and header))
        else:
            assert data is None and stderr.startswith("error: ")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", ["nan,0.1", "inf,0.1", "0.5,-inf"])
    def test_non_finite_row_exits_3_for_every_family(self, tmp_path, family, bad):
        pts = tmp_path / "p.csv"
        pts.write_text(f"x,y\n0.5,0.4\n{bad}\n0.4,0.3\n")
        code, out, err = _run(["digraph", *FAMILIES[family], "--points-file", str(pts)])
        assert (code, out) == (3, "")
        assert "non-finite coordinate at row 2: " in err

    @pytest.mark.parametrize("text", ["", "x,y\n", "\n\n"])
    def test_no_points_exit_2(self, tmp_path, text):
        pts = tmp_path / "p.csv"
        pts.write_text(text)
        code, _, err = _run(["digraph", *FAMILIES["pe"], "--points-file", str(pts)])
        assert code == 2 and "empty" in err

    def test_first_offending_row_decides(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.4\n2.5,2.5\nfoo,1\n")
        assert _run(["digraph", *FAMILIES["pe"], "--points-file", str(pts)])[0] == 3
        pts.write_text("x,y\n0.5,0.4\nfoo,1\n2.5,2.5\n")
        code, _, err = _run(["digraph", *FAMILIES["pe"], "--points-file", str(pts)])
        assert code == 2 and "bad point row 2: " in err

    def test_csv_error_exits_2_with_row(self, tmp_path):
        # a field past the csv module's size limit is a bad row, not a traceback
        pts = tmp_path / "p.csv"
        pts.write_text("x,y\n0.5,0.4\n" + "1" * 200_000 + ",0.1\n")
        code, _, err = _run(["digraph", *FAMILIES["pe"], "--points-file", str(pts)])
        assert code == 2 and "bad point row 2: field larger than field limit" in err
