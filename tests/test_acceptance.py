"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pmclab.assembly import Discretization, ScalarField
from pmclab.cli import main
from pmclab.critical import (find_critical_points, gradient_index,
                             interior_max_scan, inward_offset_loop)
from pmclab.nodal import (CylinderSolution, difference_field,
                          leading_order_fit, sector_count)
from pmclab.axisym import axis_hessian, check_monotone, find_axis_critical
from pmclab.critical import recover_gradient
from pmclab.nodal import trace_nodal_set
from pmclab.verify import verify_saddle_equivalence

from oracles import radial_ball_oracle, radial_disk_oracle

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# every config is a golden run, under the command it names
GOLDEN_RUNS = sorted(cfg.stem for cfg in CONFIGS.glob("*.json"))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_disk_robin_oracle(disk, robin_spec):
    from pmclab.geometry import triangulate
    from pmclab.solver import newton_solve
    t0 = time.time()
    disk_mesh_005 = triangulate(disk, 0.05)
    field, solve_report = newton_solve(Discretization(disk_mesh_005),
                                       robin_spec)
    oracle = radial_disk_oracle(robin_spec)
    err = float(np.abs(field.values
                       - oracle.at_points(disk_mesh_005.vertices)).max())
    records = find_critical_points(field, robin_spec)
    elapsed = time.time() - t0

    ok = err <= 5e-3
    ok &= bool(np.all(field.values < 0))
    ok &= len(records) == 1
    ok &= float(np.linalg.norm(records[0].location)) <= disk_mesh_005.h
    ok &= records[0].classification == "minimum"
    hess_err = np.abs(records[0].hessian - 0.4 * np.eye(2)).max()
    ok &= bool(hess_err <= 0.1 * 0.4)
    ok &= elapsed <= 60.0
    report(1, ok,
           f"disk Robin h=0.05: err={err:.2e} (<=5e-3), negative everywhere, "
           f"{len(records)} critical point(s), hessian dev {hess_err:.3f} "
           f"(<=0.04), {elapsed:.1f}s (<=60s)")


def test_criterion_2_disk_neumann_order(disk_mesh_01, disk_mesh_005,
                                        neumann_spec, neumann_disk_01,
                                        neumann_disk_005):
    oracle = radial_disk_oracle(neumann_spec)
    errs = []
    for mesh, (field, _) in ((disk_mesh_01, neumann_disk_01),
                             (disk_mesh_005, neumann_disk_005)):
        exact = oracle.at_points(mesh.vertices)
        exact -= exact.mean()
        errs.append(float(np.abs(field.values - exact).max()))
    ratio = errs[0] / errs[1]

    records = find_critical_points(neumann_disk_005[0], neumann_spec)
    trace = float(np.trace(records[0].hessian))
    identity_ok = abs(trace - neumann_spec.H) <= 0.1 * neumann_spec.H

    ok = ratio >= 3.0 and identity_ok and len(records) == 1
    report(2, ok,
           f"disk Neumann errors {errs[0]:.2e} -> {errs[1]:.2e}, ratio "
           f"{ratio:.2f} (>=3), laplacian at minimum {trace:.4f} vs H=0.6 "
           f"(within 10%)")


def test_criterion_3_feasibility_gate(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--config",
                 str(CONFIGS / "neumann_infeasible.json"),
                 "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    ok = code == 4
    ok &= rep["status"] == "infeasible"
    ok &= rep["solve"] is None
    ok &= not (out / "solution.csv").exists()
    report(3, ok,
           f"disk Neumann H=1.0 c=0.5: exit {code} (=4), status "
           f"{rep['status']}, no solve attempted")


def test_criterion_4_generic_convex_domain(ellipse, ellipse_mesh_005,
                                           ellipse_robin_spec,
                                           ellipse_homotopy):
    field, _ = ellipse_homotopy
    records = find_critical_points(field, ellipse_robin_spec)
    ok = len(records) == 1
    rec = records[0]
    ok &= rec.classification == "minimum"
    ok &= abs(rec.gauss_curvature) > 1e-2 * rec.scale ** 2
    maxima = interior_max_scan(field)
    ok &= len(maxima) == 0
    loop = inward_offset_loop(ellipse, 2 * ellipse_mesh_005.h)
    widx = gradient_index(field, loop)
    ok &= widx == 1
    equiv = verify_saddle_equivalence(records)
    ok &= equiv.status == "pass"
    ok &= not equiv.measured["two_or_more_minima"]
    ok &= not equiv.measured["saddle_exists"]
    report(4, ok,
           f"ellipse Robin h=0.05: {len(records)} critical point "
           f"({rec.classification}), |K|={abs(rec.gauss_curvature):.3f} above "
           f"dead-band, {len(maxima)} interior maxima, winding index {widx} "
           f"(=+1), saddle equivalence both-false")


def test_criterion_5_homotopy_stability(ellipse_homotopy):
    _, trace = ellipse_homotopy
    ok = trace.completed and len(trace.steps) == 11
    bad = [s.t for s in trace.steps
           if not (s.n_minima == 1 and s.n_saddles == 0 and s.morse_ok)]
    ok &= not bad
    step0 = trace.steps[0]
    k0 = [r.gauss_curvature for r in step0.records]
    ok &= step0.t == 0.0 and all(k > 0 for k in k0)
    report(5, ok,
           f"ellipse homotopy: 11/11 steps with one minimum and no saddle; "
           f"t=0 determinant(s) {['%.4f' % k for k in k0]} > 0")


def test_criterion_6_nodal_lab(disk_mesh_005, robin_spec, robin_disk_005):
    v = disk_mesh_005.vertices
    cubic = ScalarField(disk_mesh_005,
                        np.real((v[:, 0] + 1j * v[:, 1]) ** 3))
    sectors_cubic = sector_count(cubic, (0.0, 0.0), 0.5)
    fit_cubic = leading_order_fit(cubic, (0.0, 0.0), 2 * disk_mesh_005.h, 0.5)
    ok = sectors_cubic == 6
    ok &= abs(fit_cubic.k - 3.0) <= 0.15

    field, _ = robin_disk_005
    rec = find_critical_points(field, robin_spec)[0]
    p = rec.location
    u_p = float(disk_mesh_005.interpolate(field.values, p[None, :])[0])
    diff = difference_field(field,
                            CylinderSolution(u_p, robin_spec.H, center=p))
    sectors_diff = sector_count(diff, p, 0.3)
    fit_diff = leading_order_fit(diff, p, 2 * disk_mesh_005.h, 0.3)
    ok &= sectors_diff == 4
    ok &= fit_diff.k <= 2.5
    report(6, ok,
           f"synthetic cubic: sectors={sectors_cubic} (=6), k={fit_cubic.k:.3f} "
           f"(3 +/- 0.15); solution minus cylinder: sectors={sectors_diff} "
           f"(=4), k={fit_diff.k:.3f} (<=2.5): second-order contact only")


def test_criterion_7_axisymmetric_ball(ball_spec, ball_mesh_005,
                                       ball_robin_005):
    field, _ = ball_robin_005
    H = ball_spec.H
    oracle = radial_ball_oracle(ball_spec, 1.0, 3)
    err = float(np.abs(field.values
                       - oracle.at_points(ball_mesh_005.vertices)).max())
    ok = err <= 5e-3

    crossings = find_axis_critical(field)
    ok &= len(crossings) == 1
    mono = check_monotone(field)
    ok &= mono.holds
    ah = axis_hessian(field, 3)
    dev = float(np.abs(ah.entries - H / 3.0).max())
    ok &= dev <= 0.1 * (H / 3.0)

    vz = ScalarField(ball_mesh_005, recover_gradient(field)[:, 1])
    arcs = trace_nodal_set(vz)
    ok &= len(arcs.arcs) == 1
    arc = arcs.arcs[0]
    r_ends = sorted([float(arc[0][0]), float(arc[-1][0])])
    ok &= r_ends[0] <= 2 * ball_mesh_005.h
    ok &= r_ends[1] >= 1.0 - 2 * ball_mesh_005.h
    report(7, ok,
           f"ball n=3 Robin h=0.05: err={err:.2e} (<=5e-3), "
           f"{len(crossings)} axis critical point, hessian entries dev "
           f"{dev:.4f} from H/3 (within 10%), radial derivative positive, "
           f"axial nodal set a single axis-to-rim curve")


def _float_close(a, b, tol=1e-9):
    return abs(a - b) <= tol + tol * abs(b)


def _tree_match(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path}: key sets differ"
        for k in a:
            bad = _tree_match(a[k], b[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            bad = _tree_match(x, y, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) != isinstance(b, bool):
            return f"{path}: type mismatch"
        if not _float_close(float(a), float(b)):
            return f"{path}: {a} != {b}"
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_criterion_8_determinism_and_goldens(tmp_path, name):
    cfg = CONFIGS / f"{name}.json"
    command = json.loads(cfg.read_text())["command"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = main([command, "--config", str(cfg), "--out", str(out1)])
    code2 = main([command, "--config", str(cfg), "--out", str(out2)])
    ok = code1 == code2
    byte_identical = True
    for f in sorted(out1.iterdir()):
        byte_identical &= (out2 / f.name).read_bytes() == f.read_bytes()
    ok &= byte_identical

    golden_path = GOLDEN / f"{name}.report.json"
    got = json.loads((out1 / "report.json").read_text())
    want = json.loads(golden_path.read_text())
    mismatch = _tree_match(got, want)
    ok &= mismatch is None
    report(8, ok,
           f"golden {name}: exit {code1}, re-run byte-identical="
           f"{byte_identical}, report matches golden at 1e-9"
           + (f" [{mismatch}]" if mismatch else ""))
