import numpy as np
import pytest

from pmclab.assembly import ScalarField
from pmclab.config import parse_config
from pmclab.critical import find_critical_points
from pmclab.errors import InvalidParameterError
from pmclab.solver import HomotopyTrace
from pmclab.verify import (PROPERTY_CLAIMS, _record, run_suite,
                           verify_critical_structure, verify_homotopy_stability,
                           verify_saddle_equivalence, verify_sign_conditions)


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
        from pmclab.critical import inward_offset_loop
        field, _ = robin_disk_005
        loop = inward_offset_loop(disk, 2 * field.mesh.h)
        props = by_name(verify_critical_structure(field, robin_spec,
                                                  boundary_loop=loop,
                                                  diam=disk.diameter))
        for name in ("critical-count-unique", "critical-is-minimum",
                     "critical-nondegenerate", "no-interior-maximum",
                     "index-sum-one", "hessian-trace-identity"):
            assert props[name].status == "pass", name

    def test_double_well_fails_count_and_saddle_coupled(self, robin_spec):
        from pmclab.geometry import make_disk, triangulate
        mesh = triangulate(make_disk(2.0), 0.15)
        f = synth(mesh, lambda x, y: (x ** 2 - 1.0) ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        props = by_name(verify_critical_structure(f, robin_spec, recs,
                                                  diam=4.0))
        assert props["critical-count-unique"].status == "fail"
        assert props["critical-is-minimum"].status == "fail"
        # the biconditional still holds: 2 minima and a saddle coexist
        assert verify_saddle_equivalence(recs).status == "pass"
        assert verify_saddle_equivalence(recs).measured["saddle_exists"]


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

    def test_truncated_trace_warns(self):
        trace = HomotopyTrace(steps=[], schedule=[0.0, 1.0], completed=False)
        rec = verify_homotopy_stability(trace)
        assert rec.status == "warn"


class TestRegistry:
    def test_unknown_property_rejected(self):
        with pytest.raises(InvalidParameterError):
            _record("not-a-property", "pass")

    def test_claims_cover_all_names(self):
        assert all(isinstance(v, str) and v for v in PROPERTY_CLAIMS.values())


class TestRunSuite:
    @pytest.fixture(scope="class")
    def ellipse_cfg(self):
        return parse_config({
            "command": "verify",
            "domain": {"type": "ellipse", "a": 1.3, "b": 0.7},
            "problem": {"H": 0.5, "bc": "robin", "alpha": 1.0,
                        "schedule": [round(0.1 * k, 10) for k in range(11)]},
            "mesh": {"h_target": 0.1},
        })

    def test_robin_ellipse_passes(self, ellipse_cfg):
        res = run_suite(ellipse_cfg.canonical)
        assert res.status == "ok"
        assert res.report.verdict == "pass"
        assert len(res.report.properties) >= 9

    def test_infeasible_neumann_is_error(self):
        cfg = parse_config({
            "command": "verify",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 1.0, "bc": "neumann", "c": 0.5},
            "mesh": {"h_target": 0.2},
        })
        res = run_suite(cfg.canonical)
        assert res.status == "infeasible"
        assert res.report.verdict == "error"
        assert "feasibility" in res.report.provenance

    def test_ball_robin_passes(self):
        cfg = parse_config({
            "command": "verify",
            "domain": {"type": "ball", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0, "n_dim": 3},
            "mesh": {"h_target": 0.1},
        })
        res = run_suite(cfg.canonical)
        assert res.status == "ok"
        assert res.report.verdict == "pass"
        names = {p.name for p in res.report.properties}
        assert {"axis-critical-unique", "axis-hessian-positive",
                "radial-monotone", "axial-nodal-single-arc"} <= names

    def test_solver_failure_is_error_verdict(self):
        cfg = parse_config({
            "command": "verify",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 2.6, "bc": "robin", "alpha": 1.0},
            "mesh": {"h_target": 0.2},
            "solver": {"max_iter": 10},
        })
        res = run_suite(cfg.canonical)
        assert res.status == "solver-failure"
        assert res.report.verdict == "error"
