import json
import math
from pathlib import Path

import pytest

from pmclab.cli import main
from pmclab.config import ConfigError, apply_overrides, parse_config

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(tmp_path, command, config_name, overrides=()):
    out = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / config_name),
            "--out", str(out)]
    for ov in overrides:
        argv += ["--override", ov]
    code = main(argv)
    return code, out


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({
            "command": "solve",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
        })
        assert cfg.mesh["h_target"] == 0.1
        assert cfg.solver["newton_tol"] == 1e-10
        assert cfg.problem["t"] == 1.0
        assert cfg.config_hash

    def test_homotopy_default_schedule(self):
        cfg = parse_config({
            "command": "homotopy",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
        })
        assert len(cfg.problem["schedule"]) == 11
        assert cfg.problem["schedule"][-1] == 1.0

    def test_robin_with_c_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": "solve",
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0, "c": 0.5},
            })
        assert exc.value.path == "problem.c"

    def test_t_out_of_range_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": "solve",
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0, "t": 1.5},
            })
        assert exc.value.path == "problem.t"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": "solve",
                "domain": {"type": "disk", "R": 1.0, "radius": 2.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
            })
        assert "domain.radius" in str(exc.value)

    def test_seed_and_tolerances_are_unknown_keys(self, tmp_path, capsys):
        # neither section was ever read; a config that sets one is refused
        for key, value in (("seed", 0),
                           ("tolerances", {"sign_deadband": 1e-10})):
            doc = {"command": "solve",
                   "domain": {"type": "disk", "R": 1.0},
                   "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
                   key: value}
            with pytest.raises(ConfigError) as exc:
                parse_config(doc)
            assert exc.value.path == key
            assert "unknown key" in str(exc.value)
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps(doc))
            assert main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / key)]) == 4
            assert "unknown key" in capsys.readouterr().err

    def test_cli_subcommand_wins(self):
        cfg = parse_config({
            "command": "solve",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
        }, command="verify")
        assert cfg.command == "verify"

    def test_overrides(self):
        doc = {"command": "solve",
               "domain": {"type": "disk", "R": 1.0},
               "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        apply_overrides(doc, ["mesh.h_target=0.2", "problem.H=0.5"])
        cfg = parse_config(doc)
        assert cfg.mesh["h_target"] == 0.2
        assert cfg.problem["H"] == 0.5

    def test_hash_changes_with_content(self):
        base = {"command": "solve",
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        a = parse_config(base).config_hash
        b = parse_config(apply_overrides(dict(base), ["problem.H=0.5"]))
        assert a != b.config_hash


class TestExitCodes:
    def test_verify_pass_is_zero(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", "robin_disk.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "ok"
        assert rep["verification"]["verdict"] == "pass"

    def test_infeasible_is_four_and_no_solve(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", "neumann_infeasible.json")
        assert code == 4
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "infeasible"
        assert rep["solve"] is None
        assert not (out / "solution.csv").exists()

    def test_solve_infeasible_gated_upstream(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "neumann_infeasible.json")
        assert code == 4

    def test_invalid_config_is_four(self, tmp_path):
        code, _ = run_cli(tmp_path, "verify", "robin_disk.json",
                          ["problem.t=1.5"])
        assert code == 4

    @pytest.mark.parametrize("command, overrides", [
        ("verify", ["problem.schedule=[0.5,1.0]"]),
        ("homotopy", [])])
    def test_meridian_schedule_is_four(self, tmp_path, command, overrides):
        # continuation runs on planar domains only; a schedule on a domain
        # of revolution must not be accepted and then ignored
        code, out = run_cli(tmp_path, command, "ball3d_robin.json", overrides)
        assert code == 4
        assert not (out / "solution.csv").exists()

    def test_nonconvergence_is_three(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["problem.H=2.6", "mesh.h_target=0.2",
                             "solver.max_iter=10"])
        assert code == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "solver-failure"


class TestArtifacts:
    def test_solve_writes_all_files(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        for name in ("report.json", "solution.csv", "critical_points.csv",
                     "contours.svg"):
            assert (out / name).exists(), name

    def test_artifacts_carry_config_hash(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["mesh.h_target=0.1"])
        rep = json.loads((out / "report.json").read_text())
        h = rep["config_hash"]
        assert f"# config={h}" in (out / "solution.csv").read_text()
        assert f"config={h}" in (out / "contours.svg").read_text()
        assert f"# config={h}" in (out / "critical_points.csv").read_text()

    def test_solution_roundtrip(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["mesh.h_target=0.1"])
        lines = (out / "solution.csv").read_text().splitlines()
        rep = json.loads((out / "report.json").read_text())
        assert lines[:3] == [f"# config={rep['config_hash']}",
                             f"# mesh={rep['mesh']['mesh_hash']}",
                             "x1,x2,value"]
        rows = [[float(tok) for tok in line.split(",")] for line in lines[3:]]
        assert len(rows) == rep["mesh"]["n_vertices"]
        assert all(len(row) == 3 for row in rows)

    def test_compare_writes_nodal_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "compare", "compare_robin_disk.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert (out / "nodal_arcs.csv").exists()
        assert rep["nodal"]["critical_point"] is not None

    def test_mesh_report(self, tmp_path):
        code, out = run_cli(tmp_path, "mesh-report", "robin_disk.json",
                            ["mesh.h_target=0.2"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["mesh"]["min_angle_deg"] >= 20.0
        assert rep["mesh"]["h"] <= 1.5 * 0.2

    def test_homotopy_command(self, tmp_path):
        code, out = run_cli(tmp_path, "homotopy", "robin_disk.json",
                            ["mesh.h_target=0.15"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["homotopy"]["steps"]) == 11
        assert all(s["minima"] == 1 for s in rep["homotopy"]["steps"])

    def test_axisym_command(self, tmp_path):
        code, out = run_cli(tmp_path, "axisym", "ball3d_robin.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["axisym"]["monotone"]["holds"]
        entries = rep["axisym"]["axis_hessian"]["entries"]
        assert all(e > 0 for e in entries)
        assert math.fsum(entries) == pytest.approx(0.8, rel=0.1)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path / "a", "verify", "robin_disk.json",
                          ["mesh.h_target=0.1"])
        _, out2 = run_cli(tmp_path / "b", "verify", "robin_disk.json",
                          ["mesh.h_target=0.1"])
        for name in ("report.json", "solution.csv", "critical_points.csv",
                     "contours.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _report(out):
    return json.loads((out / "report.json").read_text())


class TestCommandsAgree:
    """Every command runs the same set-up, gate and solve, so what two
    commands both report must agree."""

    def test_compare_contact_matches_verify(self, tmp_path):
        args = ("compare_robin_disk.json",)
        code_c, out_c = run_cli(tmp_path / "c", "compare", *args)
        code_v, out_v = run_cli(tmp_path / "v", "verify", *args)
        assert code_c == code_v == 0
        compare, verify = _report(out_c), _report(out_v)
        props = {p["name"]: p for p in verify["verification"]["properties"]}
        contact = props["cylinder-contact"]["measured"]
        cylinder = compare["nodal"]["cylinder"]
        for key in ("sector_count", "fitted_order", "fit_residual"):
            assert cylinder[key] == contact[key], key
        assert compare["nodal"]["contact_radius"] == contact["radius"]
        for key in ("mesh", "solve", "critical_points"):
            assert compare[key] == verify[key], key

    def test_verify_homotopy_matches_homotopy_command(self, tmp_path):
        args = ("robin_ellipse.json", ["mesh.h_target=0.15"])
        code_h, out_h = run_cli(tmp_path / "h", "homotopy", *args)
        code_v, out_v = run_cli(tmp_path / "v", "verify", *args)
        assert code_h == code_v == 0
        homotopy = _report(out_h)["homotopy"]
        assert homotopy["completed"] and len(homotopy["steps"]) == 11
        assert _report(out_v)["homotopy"] == homotopy

    def test_meridian_neumann_gate(self, tmp_path):
        cfg = tmp_path / "ball_neumann.json"
        cfg.write_text(json.dumps({
            "domain": {"type": "ball", "R": 1.0},
            "problem": {"H": 0.8, "bc": "neumann", "c": 0.2, "n_dim": 3},
            "mesh": {"h_target": 0.1}}))
        reports = {}
        for command in ("axisym", "verify", "mesh-report"):
            out = tmp_path / command
            code = main([command, "--config", str(cfg), "--out", str(out)])
            reports[command] = (code, _report(out), out)
        for command in ("axisym", "verify"):
            code, rep, out = reports[command]
            assert code == 4, command
            assert rep["status"] == "infeasible", command
            assert rep["feasibility"]["feasible"] is False, command
            assert not (out / "solution.csv").exists(), command
        assert reports["axisym"][1]["feasibility"] == \
            reports["verify"][1]["feasibility"]
        code, rep, _ = reports["mesh-report"]
        assert code == 0
        assert rep["mesh"]["mesh_hash"] == \
            reports["axisym"][1]["mesh"]["mesh_hash"] == \
            reports["verify"][1]["mesh"]["mesh_hash"]

    def test_meridian_mesh_report_matches_verify(self, tmp_path):
        args = ("ball3d_robin.json", ["mesh.h_target=0.1"])
        code_m, out_m = run_cli(tmp_path / "m", "mesh-report", *args)
        code_v, out_v = run_cli(tmp_path / "v", "verify", *args)
        assert code_m == code_v == 0
        assert _report(out_m)["mesh"] == _report(out_v)["mesh"]

    def test_solve_gate_matches_golden(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "neumann_infeasible.json")
        assert code == 4
        golden = json.loads(
            (GOLDEN / "neumann_infeasible.report.json").read_text())
        assert _report(out)["feasibility"] == golden["feasibility"]
