"""Wrapper spans around the public functions of each proxcatch module.

A span records its name, start, end, parent span and op id.  Spans live in
flat in-memory arrays while the traced ops run and are written out at the end;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np
from proxcatch.pcd import arc_density

# module.function or module.Class.method, each under `proxcatch.`
TARGETS = (
    "geom.Triangle.contains",
    "geom.Triangle.barycentric",
    "geom.ConvexPolygon.clip",
    "geom.ConvexPolygon.equals",
    "regions.locate",
    "proximity.adjacency",
    "proximity.bary_coords",
    "proximity.vertex_cells",
    "proximity.edge_cells",
    "gamma.eta_value",
    "gamma.gamma1_set",
    "gamma.edge_extrema",
    "pcd.build_pcd",
    "pcd.domination_number",
    "pcd.PcdDigraph.to_json_dict",
    "sim.run_config",
    "sim.rng_for",
    "sim.sample_uniform_triangle",
    "sim.write_csv",
    "cli.main",
)


def _count_pairs(counters: Counter, args, result) -> None:
    counters["proximity.adjacency.pairs"] += int(result.size)


def _count_arcs(counters: Counter, args, result) -> None:
    # through the public arc_density, so the count survives a new arc storage
    n = result.n
    if n >= 2:
        counters["pcd.build_pcd.arcs"] += round(arc_density(result) * n * (n - 1))


def _count_gamma(counters: Counter, args, result) -> None:
    g = result.gamma
    counters["pcd.domination_number." + (f"gamma{g}" if g <= 3 else "gamma_gt3")] += 1


def _count_csv_bytes(counters: Counter, args, result) -> None:
    counters["sim.write_csv.bytes"] += args[0].tell()  # the file holds only the table


AFTER = {
    "proximity.adjacency": _count_pairs,
    "pcd.build_pcd": _count_arcs,
    "pcd.domination_number": _count_gamma,
    "sim.write_csv": _count_csv_bytes,
}

COUNTERS = (
    "proximity.adjacency.pairs",
    "pcd.build_pcd.arcs",
    "pcd.domination_number.gamma1",
    "pcd.domination_number.gamma2",
    "pcd.domination_number.gamma3",
    "pcd.domination_number.gamma_gt3",
    "sim.write_csv.bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: str, fn):
        nid = len(self.names)
        self.names.append(target)
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack, counters, after = self._stack, self.counters, AFTER.get(target)

        def span(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return span

    def install(self) -> None:
        """Patch every binding of each target in the loaded proxcatch modules."""
        modules = [m for k, m in sys.modules.items() if k == "proxcatch" or k.startswith("proxcatch.")]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            # A target a later refactor removed reads 0 instead of failing the run.
            owner = importlib.import_module(f"proxcatch.{mod_name}")
            if len(path) == 2:
                owner = getattr(owner, path[0], None)
            attr = path[-1]
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, orig)
            if len(path) == 2:  # a method: one binding, on its class
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def summary(self, traced_wall: float) -> dict[str, float]:
        """Calls and self seconds per target, the counters, and how much of
        the traced wall time the root spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_by = np.bincount(a["name"], weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {}
        for target in TARGETS:
            nid = self.names.index(target) if target in self.names else None
            out[f"{target}.calls"] = int(calls[nid]) if nid is not None else 0
            out[f"{target}.self_s"] = float(self_by[nid]) if nid is not None else 0.0
        for key in COUNTERS:
            out[key] = self.counters[key]
        eta_calls = out["gamma.eta_value.calls"]
        out["gamma.gamma1_set.per_eta_value"] = (
            out["gamma.gamma1_set.calls"] / eta_calls if eta_calls else 0.0
        )
        out["trace.coverage"] = float(dur[~has_parent].sum()) / traced_wall
        return out
