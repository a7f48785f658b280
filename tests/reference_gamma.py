"""Reference minimum active subsets.

`reference_eta_pe` is the polygon-and-loop form `proxcatch.gamma.eta_value`
used for the proportional-edge family before the piece kinds were read from
the barycentric matrix: it classifies each cell's piece of the region by
polygon equality and emptiness, and settles eta with Python loops over the
per-point masks.  `reference_eta_subsets` is the subset search `eta_value`
used for central similarity when it first pruned the sample to its
Pareto-minimal points.  Tests compare `eta_value` against both, witness
included.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

import numpy as np

from proxcatch import ProximityMapSpec
from proxcatch.geom import EPS, barycentric_coeffs
from proxcatch.gamma import edge_extrema, gamma1_from_extrema, gamma1_set
from proxcatch.proximity import as_points_array, bary_coords


def reference_eta_pe(spec: ProximityMapSpec, sample) -> Optional[tuple[int, tuple[int, ...]]]:
    """(eta, witness) for PE with finite r, or None when the edge extrema give
    a degenerate region (where the subset search decides instead)."""
    t = spec.triangle
    target = gamma1_from_extrema(spec, edge_extrema(sample, t).points)
    if len(target.pieces) != 3:
        return None
    part = spec.vertex_partition()
    r = spec.r
    b = bary_coords(t, as_points_array(sample))
    n = b.shape[1]
    coeffs = barycentric_coeffs(t)
    masks = np.zeros(n, dtype=np.int64)
    required = 0
    for i in range(3):
        cell = part.cells[i]
        piece = target.pieces[i]
        if piece.equals(cell):
            continue
        required |= 1 << i
        scale = math.hypot(coeffs[i][0], coeffs[i][1])
        if piece.is_empty:
            cellmin = min(t.barycentric(w)[i] for w in cell.vertices)
            bits = (1.0 - (1.0 - b[i]) / r) < cellmin - EPS * scale
        else:
            bits = b[i] <= float(b[i].min()) + 1e-12
        masks |= bits.astype(np.int64) << i
    if required == 0:
        return 1, (0,)
    for i in range(n):
        if masks[i] & required == required:
            return 1, (i,)
    distinct: dict[int, int] = {}
    for i in range(n):
        m = int(masks[i]) & required
        if m and m not in distinct:
            distinct[m] = i
    items = sorted(distinct.items(), key=lambda kv: kv[1])
    for m1, i1 in items:
        for m2, i2 in items:
            if i2 > i1 and (m1 | m2) == required:
                return 2, (i1, i2)
    return 3, tuple(sorted(set(edge_extrema(sample, t).indices)))


def pareto_min_indices(b: np.ndarray) -> list[int]:
    """Indices of points minimal under componentwise ordering of the columns
    of the (3, n) barycentric matrix (ties within 1e-15 do not dominate)."""
    n = b.shape[1]
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(b[:, j] <= b[:, i] + 1e-15) and np.any(b[:, j] < b[:, i] - 1e-15):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def reference_eta_subsets(spec: ProximityMapSpec, sample) -> tuple[int, tuple[int, ...]]:
    """(eta, witness) from the subsets of the Pareto-minimal points, by
    increasing cardinality, against the region of the edge extrema."""
    target = gamma1_from_extrema(spec, edge_extrema(sample, spec.triangle).points)
    candidates = pareto_min_indices(bary_coords(spec.triangle, as_points_array(sample)))
    for k in range(1, len(candidates) + 1):
        for subset in combinations(candidates, k):
            if gamma1_set(spec, [sample[i] for i in subset]).equals(target):
                return k, subset
    raise AssertionError("no subset of the candidates reproduces the region")
