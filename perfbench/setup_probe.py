"""Time one fresh process's set-up for a workload and print it in seconds.

Set-up is importing proxcatch, building the CLI parser and constructing the
workload's map specs with both of their partitions.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/setup_probe.py pe=2 cs=0.5
"""

import sys
import time

t0 = time.perf_counter()

from proxcatch import cli  # noqa: E402
from proxcatch.geom import equilateral_triangle  # noqa: E402
from proxcatch.proximity import ProximityMapSpec  # noqa: E402

cli.build_parser()
for spec_text in sys.argv[1:]:
    family, param = spec_text.split("=")
    make = ProximityMapSpec.pe if family == "pe" else ProximityMapSpec.cs
    spec = make(equilateral_triangle(), float(param), "centroid")
    spec.vertex_partition()
    spec.edge_partition()
print(repr(time.perf_counter() - t0))
