"""Reference minimum active subset for the proportional-edge family.

This is the polygon-and-loop form `proxcatch.gamma.eta_value` used before the
piece kinds were read from the barycentric matrix: it classifies each cell's
piece of the region by polygon equality and emptiness, and settles eta with
Python loops over the per-point masks.  Tests compare `eta_value` against it,
witness included.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from proxcatch import ProximityMapSpec
from proxcatch.geom import EPS, barycentric_coeffs
from proxcatch.gamma import edge_extrema, gamma1_from_extrema
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
