"""The benchmark's workloads and the seeded inputs they are built from.

Each workload is a fixed, repeating mix of `proxcatch` CLI invocations (ops).
Every op's seed and every points file derive from the workload seed alone, so
the same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

# Points files are drawn into a pool and reused round-robin once it is spent.
POINTS_POOL = 160
# Op seeds are drawn for this many ops and reused round-robin after that.
PLAN_OPS = 2000

EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


@dataclass(frozen=True)
class SimOp:
    """`proxcatch simulate` with one estimator under one map."""

    estimator: str
    family: str
    param: str
    grid: tuple[int, ...]
    replicates: int


@dataclass(frozen=True)
class DigraphOp:
    """`proxcatch digraph` on a points file of `n` uniform points."""

    family: str
    param: str
    n: int


@dataclass(frozen=True)
class Workload:
    mix: tuple  # ops issued in this order, round after round
    trace_ops: int  # ops replayed untraced and traced in a --trace 1 run
    reference_ops: int  # default-seed ops whose output digest is stored


# Replicate counts size one op at roughly 100-700 ms on a 2-vCPU x86 VM.
WORKLOADS: dict[str, Workload] = {
    # The two ops cost about the same, so the median does not fall in a gap
    # between two latency clusters.
    "mc-region": Workload(
        mix=(
            SimOp("eta_pmf", "pe", "2", (3, 10, 50, 200), 22),
            SimOp("gamma1_area", "pe", "2", (10, 100, 2000), 85),
        ),
        trace_ops=40,
        reference_ops=2,
    ),
    # The pe op costs most, so the median falls among the two cs ops and the
    # 90th percentile among the pe ops, each away from a gap between kinds.
    "mc-digraph": Workload(
        mix=(
            SimOp("domination_pmf", "pe", "1.5", (10, 50, 100), 25),
            SimOp("domination_pmf", "cs", "0.5", (24,), 80),
            SimOp("arc_density", "cs", "0.5", (100,), 400),
        ),
        trace_ops=45,
        reference_ops=3,
    ),
    "digraph-files": Workload(
        mix=(DigraphOp("pe", "1.5", 300),),
        trace_ops=24,
        reference_ops=2,
    ),
}

# Smoke mode keeps the op mix but shrinks every op to a few milliseconds.
SMOKE_REPLICATES = 2
SMOKE_POINTS = 30


def smoke_op(op):
    if isinstance(op, SimOp):
        return SimOp(op.estimator, op.family, op.param, op.grid, SMOKE_REPLICATES)
    return DigraphOp(op.family, op.param, SMOKE_POINTS)


def specs(name: str) -> list[str]:
    """Distinct `family=param` maps a workload uses."""
    seen: dict[str, None] = {}
    for op in WORKLOADS[name].mix:
        seen[f"{op.family}={op.param}"] = None
    return list(seen)


def _family_args(op) -> list[str]:
    flag = "--r" if op.family == "pe" else "--tau"
    return ["--family", op.family, flag, op.param, "--center", "centroid", "--equilateral"]


def _seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(index,))


def points_csv(seed: int, index: int, n: int) -> bytes:
    """n uniform points in the unit equilateral triangle, as a `x,y` CSV."""
    u = np.random.default_rng(_seed_sequence(seed, index)).random((n, 2))
    over = u.sum(axis=1) > 1.0
    u[over] = 1.0 - u[over]
    (ax, ay), (bx, by), (cx, cy) = EQUILATERAL
    xs = ax + u[:, 0] * (bx - ax) + u[:, 1] * (cx - ax)
    ys = ay + u[:, 0] * (by - ay) + u[:, 1] * (cy - ay)
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))
    return ("x,y\n" + rows).encode()


def make_inputs(name: str, seed: int, n_ops: int, workdir: str, smoke: bool = False):
    """Plan of `n_ops` ops plus the points files they read, all from `seed`.

    Returns (ops, files): ops are dicts with the CLI argv, the output path and
    what the output checks need; files maps relative path -> bytes.  Paths
    are relative to the checkout root under `workdir`.
    """
    mix = WORKLOADS[name].mix
    if smoke:
        mix = tuple(smoke_op(op) for op in mix)
    ops: list[dict] = []
    files: dict[str, bytes] = {}
    for i in range(n_ops):
        op = mix[i % len(mix)]
        if isinstance(op, SimOp):
            op_seed = int(_seed_sequence(seed, i).generate_state(1)[0] >> 1)
            out = f"{workdir}/out.csv"
            argv = ["simulate", "--estimator", op.estimator, "--n-grid",
                    ",".join(map(str, op.grid)), "--replicates", str(op.replicates),
                    *_family_args(op), "--seed", str(op_seed), "--out", out]
            check = {"kind": "simulate", "estimator": op.estimator, "family": op.family,
                     "param": float(op.param), "grid": list(op.grid),
                     "replicates": op.replicates, "seed": op_seed}
        else:
            k = i % POINTS_POOL
            path = f"{workdir}/points-{k:03d}.csv"
            if path not in files:
                files[path] = points_csv(seed, k, op.n)
            out = f"{workdir}/out.json"
            argv = ["digraph", *_family_args(op), "--points-file", path, "--out", out]
            check = {"kind": "digraph", "family": op.family, "n": op.n}
        ops.append({"argv": argv, "out": out, "check": check})
    return ops, files


def inputs_digest(ops: list[dict], files: dict[str, bytes]) -> str:
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for path in sorted(files):
        h.update(path.encode())
        h.update(files[path])
    return h.hexdigest()
