import json
import types
from dataclasses import replace

import numpy as np
import pytest

import pmclab.solver
from pmclab import cli, pipeline
from pmclab.artifacts import canonical_json
from pmclab.assembly import Discretization, ProblemSpec, ScalarField
from pmclab.config import parse_config
from pmclab.critical import find_critical_points, inward_offset_loop
from pmclab.errors import InvalidParameterError
from pmclab.geometry import make_disk, triangulate
from pmclab.nodal import CylinderSolution
from pmclab.verify import (PROPERTY_CLAIMS, _record, run_suite,
                           verify_critical_structure, verify_cylinder_contact,
                           verify_homotopy_stability, verify_meridian_structure,
                           verify_saddle_equivalence, verify_sign_conditions)
from pmclab.solver import HomotopyStep, HomotopyTrace, newton_solve

from oracles import dumbbell_loop, dumbbell_mesh


def synth(mesh, fn):
    return ScalarField(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def by_name(props):
    return {p.name: p for p in props}


class TestSignConditions:
    def test_robin_disk_passes(self, robin_disk_005, robin_spec):
        props = by_name(verify_sign_conditions(robin_disk_005[0], robin_spec))
        assert props["solution-negative"].status == "pass"
        # max value sits at the rim, near the closed form -0.43644
        assert props["solution-negative"].measured["max_value"] == \
            pytest.approx(-0.4364357804719848, abs=5e-3)

    def test_neumann_skips(self, neumann_disk_005, neumann_spec):
        props = verify_sign_conditions(neumann_disk_005[0], neumann_spec)
        assert all(p.status == "skip" for p in props)

    def test_positive_field_fails_with_offender(self, disk_mesh_01,
                                                robin_spec):
        f = ScalarField(disk_mesh_01, np.ones(disk_mesh_01.n_vertices))
        props = by_name(verify_sign_conditions(f, robin_spec))
        assert props["solution-negative"].status == "fail"
        assert "argmax" in props["solution-negative"].measured


class TestCriticalStructure:
    def test_solved_disk_passes(self, robin_disk_005, robin_spec, disk):
        field, _ = robin_disk_005
        loop = inward_offset_loop(disk, 2 * field.mesh.h)
        props = by_name(verify_critical_structure(
            field, robin_spec, find_critical_points(field, robin_spec), loop,
            disk.diameter))
        for name in ("critical-count-unique", "critical-is-minimum",
                     "critical-nondegenerate", "no-interior-maximum",
                     "index-sum-one", "hessian-trace-identity"):
            assert props[name].status == "pass", name

    def test_double_well_fails_count_and_saddle_coupled(self, robin_spec):
        disk = make_disk(2.0)
        mesh = triangulate(disk, 0.15)
        f = synth(mesh, lambda x, y: (x ** 2 - 1.0) ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        props = by_name(verify_critical_structure(
            f, robin_spec, recs, inward_offset_loop(disk, 2 * mesh.h), 4.0))
        assert props["critical-count-unique"].status == "fail"
        assert props["critical-is-minimum"].status == "fail"
        # the biconditional still holds: 2 minima and a saddle coexist
        assert verify_saddle_equivalence(recs).status == "pass"
        assert verify_saddle_equivalence(recs).measured["saddle_exists"]


class TestNegativeControl:
    """The paper needs convexity.  On a dumbbell (two unit disks at
    x = +-1.6 joined by a channel of half-width 0.25) the solution has two
    minima and a saddle at the neck, so the suite must fail there for a
    true reason; the convex stadium (w = 1) passes at the same data."""

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    @pytest.mark.parametrize("w, failing", [
        (0.25, {"critical-count-unique", "critical-is-minimum"}),
        (1.0, set())], ids=["dumbbell", "stadium"])
    def test_fails_only_off_the_hypothesis(self, w, failing, alpha):
        D, h = 1.6, 0.04
        spec = ProblemSpec(H=0.5, bc="robin", alpha=alpha)
        field, report = newton_solve(Discretization(dumbbell_mesh(D, w, h)),
                                     spec)
        assert report.converged
        records = find_critical_points(field, spec)
        loop = dumbbell_loop(D, w - 2 * h, 0.5 * h, R=1.0 - 2 * h)
        props = verify_critical_structure(field, spec, records, loop,
                                          2 * D + 2)
        props.append(verify_saddle_equivalence(records))
        assert {p.name for p in props if p.status == "fail"} == failing
        assert all(p.status == "pass" for p in props
                   if p.name not in failing)
        saddles = [r.location for r in records
                   if r.classification == "saddle"]
        assert len(saddles) == (1 if failing else 0)
        assert all(abs(x) < 0.5 for x, _ in saddles)     # in the neck

    def test_pitchfork_sweep_fails_through_degeneracy(self):
        # D 1.2, alpha 10: narrowing the neck flattens the one minimum until
        # it splits into two minima and a degenerate point at w 0.8.  At w
        # 0.85 the minimum's index loop is ill-conditioned: a warn, not a fail
        D, h = 1.2, 0.04
        spec = ProblemSpec(H=0.5, bc="robin", alpha=10.0)
        smallest, statuses = [], []
        for w in (0.999, 0.9, 0.85, 0.8):
            field, report = newton_solve(
                Discretization(dumbbell_mesh(D, w, h)), spec)
            assert report.converged
            records = find_critical_points(field, spec)
            loop = dumbbell_loop(D, w - 2 * h, 0.5 * h, R=1.0 - 2 * h)
            props = verify_critical_structure(field, spec, records, loop,
                                              2 * D + 2)
            props.append(verify_saddle_equivalence(records))
            statuses.append(by_name(props))
            centre = min(records, key=lambda r: abs(r.location[0]))
            smallest.append(float(np.linalg.eigvalsh(centre.hessian)[0]))
        assert np.all(np.diff(smallest) < 0) and smallest[-1] < 0
        for props in statuses[:3]:
            assert not [n for n, p in props.items() if p.status == "fail"]
        assert statuses[2]["index-sum-one"].status == "warn"
        assert {n for n, p in statuses[3].items() if p.status == "fail"} == {
            "critical-count-unique", "critical-is-minimum",
            "critical-nondegenerate", "saddle-equivalence"}
        assert statuses[3]["critical-is-minimum"].measured[
            "classifications"] == ["minimum", "degenerate", "minimum"]

    def test_uncomputed_index_warns_only_on_a_unit_loop(
            self, robin_disk_005, robin_spec, disk):
        field, _ = robin_disk_005
        loop = inward_offset_loop(disk, 2 * field.mesh.h)
        records = [replace(r, index=None)
                   for r in find_critical_points(field, robin_spec)]
        rec = by_name(verify_critical_structure(
            field, robin_spec, records, loop, disk.diameter))["index-sum-one"]
        assert rec.status == "warn"
        assert rec.note == "1 local index(es) could not be computed"
        saddle = synth(field.mesh, lambda x, y: x ** 2 - y ** 2)
        rec = by_name(verify_critical_structure(
            saddle, robin_spec, records, loop, disk.diameter))["index-sum-one"]
        assert rec.measured["loop_index"] == -1
        assert rec.status == "fail"


class TestSaddleEquivalence:
    def test_unique_minimum_both_false(self, robin_disk_005, robin_spec):
        recs = find_critical_points(robin_disk_005[0], robin_spec)
        rec = verify_saddle_equivalence(recs)
        assert rec.status == "pass"
        assert not rec.measured["two_or_more_minima"]
        assert not rec.measured["saddle_exists"]

    def test_bowl_both_false(self, disk_mesh_01, robin_spec):
        f = synth(disk_mesh_01, lambda x, y: x ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        rec = verify_saddle_equivalence(recs)
        assert rec.status == "pass"


class TestHomotopyStability:
    def test_ellipse_passes(self, ellipse_homotopy):
        _, trace = ellipse_homotopy
        rec = verify_homotopy_stability(trace)
        assert rec.status == "pass"
        assert rec.measured["t0_determinant_positive"]


class TestRegistry:
    def test_unknown_property_rejected(self):
        with pytest.raises(InvalidParameterError):
            _record("not-a-property", "pass")

    def test_claims_cover_all_names(self):
        assert all(isinstance(v, str) and v for v in PROPERTY_CLAIMS.values())


# -- every property can fail --------------------------------------------------
#
# One row per registered property: its verify_* function on a minimal
# synthetic input, and the other properties of that function that fail with
# it.  Planar fields live on the unit disk (H 0.8), meridian fields on the
# unit ball's meridian mesh (n 3, H 0.8).

ROBIN = ProblemSpec(H=0.8, bc="robin", alpha=1.0)
BALL = ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=3)


def _census(fixture, fn):
    field = synth(fixture("disk_mesh_01"), fn)
    return field, find_critical_points(field, ROBIN)


def sign(fixture):
    return verify_sign_conditions(
        synth(fixture("disk_mesh_01"), lambda x, y: np.ones_like(x)), ROBIN)


def critical(fn):
    def props(fixture):
        field, records = _census(fixture, fn)
        disk = make_disk(1.0)
        return verify_critical_structure(
            field, ROBIN, records, inward_offset_loop(disk, 2 * field.mesh.h),
            disk.diameter)
    return props


def saddle_equivalence(fn):
    return lambda fixture: [verify_saddle_equivalence(_census(fixture, fn)[1])]


def homotopy(fixture):
    two_minima = HomotopyStep(t=1.0, field_min=-1.0, field_max=0.0,
                              n_critical=3, n_minima=2, n_maxima=0,
                              n_saddles=1, morse_ok=True)
    return [verify_homotopy_stability(HomotopyTrace([two_minima], True))]


def cylinder(k):
    # the matched cylinder plus r^k cos 3 theta about a vertex near the
    # centre: a six-sector difference of contact order k
    def props(fixture):
        mesh = fixture("disk_mesh_005")
        p = mesh.vertices[np.argmin(np.linalg.norm(mesh.vertices, axis=1))]
        x, y = (mesh.vertices - p).T
        values = CylinderSolution(-0.5, ROBIN.H, center=p)(mesh.vertices) \
            + np.hypot(x, y) ** k * np.cos(3 * np.arctan2(y, x))
        return [verify_cylinder_contact(ScalarField(mesh, values), ROBIN,
                                        [types.SimpleNamespace(location=p)],
                                        2.0)]
    return props


def meridian(fn):
    return lambda fixture: verify_meridian_structure(
        synth(fixture("ball_mesh_005"), fn), BALL)


def saddle(x, y):
    # Hessian trace 2 (0.9 - 0.5) = H: only the saddle itself is wrong
    return 0.9 * x ** 2 - 0.5 * y ** 2


def row(name, case, props, also_fail=(), xfail=None):
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(name, props, set(also_fail), id=f"{name}-{case}",
                        marks=marks)


AXIS_FAIL = ("axis-hessian-positive", "hessian-trace-identity")
THREE_CROSSINGS = meridian(lambda r, z: (z ** 2 - 0.25) ** 2 + r ** 2 - 10)

FAILING_ROWS = [
    row("solution-negative", "positive", sign),
    row("critical-count-unique", "double-well",
        critical(lambda x, y: (x ** 2 - 0.25) ** 2 + y ** 2),
        ("critical-is-minimum", "hessian-trace-identity")),
    row("critical-is-minimum", "saddle", critical(saddle), ("index-sum-one",)),
    row("critical-nondegenerate", "quartic-minimum",
        critical(lambda x, y: x ** 4 + y ** 4), ("hessian-trace-identity",)),
    row("no-interior-maximum", "cap", critical(lambda x, y: -x ** 2 - y ** 2),
        ("critical-is-minimum", "hessian-trace-identity")),
    row("index-sum-one", "saddle", critical(saddle), ("critical-is-minimum",)),
    row("hessian-trace-identity", "steep-bowl",
        critical(lambda x, y: x ** 2 + y ** 2)),
    row("saddle-equivalence", "saddle", saddle_equivalence(saddle)),
    row("homotopy-stability", "two-minima-step", homotopy),
    row("cylinder-contact", "six-sector-quartic", cylinder(4)),
    row("cylinder-contact", "six-sector-cubic", cylinder(3), xfail=(
        "P1 interpolation biases the fitted order of an exact cubic below "
        "3 (2.96 at h 0.05), under the k >= 3 threshold")),
    row("radial-monotone", "radial-decrease",
        meridian(lambda r, z: -r ** 2 + z ** 2 - 10),
        ("axis-critical-unique", *AXIS_FAIL)),
    row("axis-critical-unique", "three-crossings", THREE_CROSSINGS,
        ("axial-nodal-single-arc", *AXIS_FAIL)),
    row("axis-hessian-positive", "axial-maximum",
        meridian(lambda r, z: 0.3 * r ** 2 - 0.2 * z ** 2 - 10)),
    row("axial-nodal-single-arc", "three-arcs", THREE_CROSSINGS,
        ("axis-critical-unique", *AXIS_FAIL)),
    row("hessian-trace-identity", "meridian-steep-bowl",
        meridian(lambda r, z: r ** 2 + z ** 2 - 10)),
]


class TestEveryPropertyCanFail:
    """ROADMAP item 6: a detector never seen to fire is unverified."""

    def test_every_claim_has_a_row(self):
        assert set(PROPERTY_CLAIMS) == {r.values[0] for r in FAILING_ROWS}

    @pytest.mark.parametrize("name, props, also_fail", FAILING_ROWS)
    def test_fails_on_its_input(self, request, name, props, also_fail):
        statuses = by_name(props(request.getfixturevalue))
        assert statuses[name].status == "fail"
        assert {n for n, p in statuses.items() if p.status == "fail"} == \
            {name} | also_fail


class TestRunSuite:
    def test_evaluates_a_solved_run_without_solving(self, monkeypatch):
        # the suite reads the run the shared pipeline solved; it sets up
        # and solves nothing itself
        run = pipeline.setup(parse_config({
            "command": "verify", "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
            "mesh": {"h_target": 0.1}}).canonical)
        field, _, trace = pipeline.solve(run)
        records = pipeline.census(field, run.spec, trace)

        def refuse(*args, **kwargs):
            raise AssertionError("run_suite ran the pipeline")

        for name in ("setup", "solve", "census"):
            monkeypatch.setattr(pipeline, name, refuse)
        report = json.loads(canonical_json(run_suite(run, field, records,
                                                     trace)))
        assert set(report) == {"properties", "verdict"}
        assert report["verdict"] == "pass"
        names = [p["name"] for p in report["properties"]]
        assert "homotopy-stability" not in names
        assert "critical-count-unique" in names

    def _verify_without_suite(self, monkeypatch, tmp_path, raw):
        # a verify run whose gate or solve fails reaches no property: the
        # suite is never called and the report carries no verification
        def refuse(*args, **kwargs):
            raise AssertionError("run_suite ran on a failed solve")

        monkeypatch.setattr(cli, "run_suite", refuse)
        code = cli.run(parse_config(raw), tmp_path)
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["exit_code"] == code
        assert rep["verification"] is None
        assert rep["error"]
        return code, rep

    def test_infeasible_neumann_is_error(self, monkeypatch, tmp_path):
        code, rep = self._verify_without_suite(monkeypatch, tmp_path, {
            "command": "verify",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 1.0, "bc": "neumann", "c": 0.5},
            "mesh": {"h_target": 0.2},
        })
        assert code == 4
        assert rep["status"] == "infeasible"
        assert rep["feasibility"]["feasible"] is False
        assert rep["solve"] is None

    def test_solver_failure_is_error_verdict(self, monkeypatch, tmp_path):
        monkeypatch.setattr(pmclab.solver, "_MAX_ITER", 10)
        code, rep = self._verify_without_suite(monkeypatch, tmp_path, {
            "command": "verify",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 2.6, "bc": "robin", "alpha": 1.0},
            "mesh": {"h_target": 0.2},
        })
        assert code == 3
        assert rep["status"] == "solver-failure"
        assert rep["solve"]["converged"] is False
