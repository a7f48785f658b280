"""Cheap invariant checks on one op's output.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import re

HEADER = ["estimator", "family", "param", "center", "n", "replicates", "mean", "stderr", "seed"]
PMF_TOL = 1e-12
# Largest domination number under the proportional-edge map (kappa = 3).
PE_GAMMA_MAX = 3

# estimator -> (pmf row prefix or None, row names allowed per n)
_ROWS = {
    "eta_pmf": ("eta_pmf", re.compile(r"eta_pmf\[\d+\]|distinct_extrema_prob")),
    "gamma1_area": (None, re.compile(r"gamma1_area_abs|gamma1_area_frac")),
    "domination_pmf": ("domination_pmf", re.compile(r"domination_pmf\[\d+\]")),
    "arc_density": (None, re.compile(r"arc_density")),
}
# rows whose mean is a fraction or a probability
_UNIT_INTERVAL = re.compile(r".*_pmf\[\d+\]|distinct_extrema_prob|gamma1_area_frac|arc_density")


def _param_label(check: dict) -> str:
    return f"{'r' if check['family'] == 'pe' else 'tau'}={check['param']}"


def check_simulate(check: dict, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != HEADER:
        return [f"bad CSV header {rows[:1]!r}"]
    pmf_prefix, allowed = _ROWS[check["estimator"]]
    expected = [check["family"], _param_label(check), "centroid"]
    problems: list[str] = []
    means: dict[int, dict[str, float]] = {}
    for row in rows[1:]:
        if len(row) != len(HEADER):
            problems.append(f"row has {len(row)} fields: {row!r}")
            continue
        name, family, param, center, n, reps, mean, stderr, seed = row
        if not allowed.fullmatch(name):
            problems.append(f"unexpected estimator row {name!r}")
        if [family, param, center] != expected:
            problems.append(f"row labels {[family, param, center]!r} != {expected!r}")
        if int(reps) != check["replicates"] or int(seed) != check["seed"]:
            problems.append(f"row replicates/seed {reps}/{seed} do not echo the op")
        m, se = float(mean), float(stderr)
        if not se >= 0.0:
            problems.append(f"{name} at n={n}: stderr {se!r} < 0")
        if _UNIT_INTERVAL.fullmatch(name) and not 0.0 <= m <= 1.0:
            problems.append(f"{name} at n={n}: {m!r} outside [0, 1]")
        if name == "gamma1_area_abs" and not m >= 0.0:
            problems.append(f"{name} at n={n}: negative area {m!r}")
        means.setdefault(int(n), {})[name] = m
    if sorted(means) != sorted(check["grid"]):
        problems.append(f"rows cover n={sorted(means)}, expected {check['grid']}")
    for n, by_name in means.items():
        if pmf_prefix is None:
            continue
        pmf = {int(k[len(pmf_prefix) + 1:-1]): v for k, v in by_name.items()
               if k.startswith(pmf_prefix + "[")}
        if abs(sum(pmf.values()) - 1.0) > PMF_TOL:
            problems.append(f"{pmf_prefix} at n={n} sums to {sum(pmf.values())!r}")
        if (check["estimator"] == "domination_pmf" and check["family"] == "pe"
                and max(pmf, default=0) > PE_GAMMA_MAX):
            problems.append(f"domination number {max(pmf)} > {PE_GAMMA_MAX} under pe at n={n}")
    return problems


def check_digraph(check: dict, stdout: str, text: str) -> list[str]:
    fields = dict(f.split("=", 1) for f in stdout.split())
    gamma, rho = int(fields["gamma"]), float(fields["rho"])
    d = json.loads(text)
    n, arcs = d["n"], d["arcs"]
    problems: list[str] = []
    if n != check["n"]:
        problems.append(f"digraph has {n} vertices, expected {check['n']}")
    if not 1 <= gamma <= (PE_GAMMA_MAX if check["family"] == "pe" else n):
        problems.append(f"domination number {gamma} out of range")
    if any(i == j or not (0 <= i < n and 0 <= j < n) for i, j in arcs):
        problems.append("arc list has a loop or an out-of-range vertex")
    if rho != len(arcs) / (n * (n - 1)):
        problems.append(f"rho={rho!r} but the JSON has {len(arcs)} arcs on {n} vertices")
    return problems
