import json
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
from pmclab.verify import (PROPERTY_CLAIMS, _record, run_suite,
                           verify_critical_structure, verify_homotopy_stability,
                           verify_saddle_equivalence, verify_sign_conditions)
from pmclab.solver import newton_solve

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
        assert props["boundary-outflux-positive"].status == "pass"

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
        from pmclab.geometry import make_disk, triangulate
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
        spec = ProblemSpec.robin(0.5, alpha)
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
        spec = ProblemSpec.robin(0.5, 10.0)
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
