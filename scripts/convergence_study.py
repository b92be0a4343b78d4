#!/usr/bin/env python3
"""Mesh-convergence table for the disk problems against the radial closed
forms.  Usage: python scripts/convergence_study.py [robin|neumann]"""

import math
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from oracles import radial_disk_oracle  # noqa: E402
from pmclab.assembly import Discretization, ProblemSpec  # noqa: E402
from pmclab.geometry import make_disk, triangulate  # noqa: E402
from pmclab.solver import newton_solve  # noqa: E402

kind = sys.argv[1] if len(sys.argv) > 1 else "robin"
if kind == "robin":
    spec = ProblemSpec.robin(0.8, 1.0)
else:
    spec = ProblemSpec.neumann(0.6, 0.5)

disk = make_disk(1.0)
oracle = radial_disk_oracle(spec)
print(f"{kind} disk, H={spec.H}: vertex max-norm error vs closed form")
print(f"{'h':>8} {'n_vert':>8} {'iters':>6} {'error':>12} {'order':>7}")
prev = None
for h in (0.2, 0.1, 0.05, 0.025):
    mesh = triangulate(disk, h)
    field, report = newton_solve(Discretization(mesh), spec)
    exact = oracle.at_points(mesh.vertices)
    vals = field.values
    if spec.bc == "neumann":
        exact = exact - exact.mean()
    err = float(np.abs(vals - exact).max())
    order = "" if prev is None else f"{math.log2(prev / err):7.2f}"
    print(f"{h:8.3f} {mesh.n_vertices:8d} {report.iterations:6d} "
          f"{err:12.3e} {order:>7}")
    prev = err
