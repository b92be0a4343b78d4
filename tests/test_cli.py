import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmclab
import pmclab.solver
from pmclab.artifacts import (canonical_json, write_contours_svg,
                              write_nodal_csv, write_solution_csv)
from pmclab.assembly import FeasibilityReport
from pmclab.axisym import AxisHessian, MonotoneReport
from pmclab.cli import main
from pmclab.config import (DOMAIN_PARAMS, ConfigError, apply_overrides,
                           parse_config)
from pmclab.critical import CriticalPointRecord
from pmclab.geometry import TriMesh
from pmclab.nodal import NodalArcSet
from pmclab.solver import SolveReport
from pmclab.verify import PropertyRecord, VerificationReport

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
ELEVEN_STEPS = json.dumps([round(0.1 * k, 10) for k in range(11)])


def run_cli(tmp_path, command, config_name, overrides=()):
    out = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / config_name),
            "--out", str(out)]
    for ov in overrides:
        argv += ["--override", ov]
    code = main(argv)
    return code, out


@pytest.mark.parametrize("entry, frozen", [
    ("import pmclab.cli, pmclab.__main__", False),
    ("import runpy, sys; sys.argv = ['pmclab', '--help']\n"
     "try:\n    runpy.run_module('pmclab', run_name='__main__')\n"
     "except SystemExit:\n    pass", True)], ids=["import", "python-m"])
def test_import_heap_frozen_by_entry_point_only(entry, frozen):
    # `python -m pmclab` freezes the imported modules out of the collector;
    # a library import leaves the collector alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pmclab.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", f"import gc, sys\n{entry}\n"
         "print(gc.get_freeze_count(), file=sys.stderr)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert (int(out.stderr.split()[-1]) > 0) == frozen


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({
            "command": "solve",
            "domain": {"type": "disk", "R": 1.0},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
        })
        assert cfg.canonical["mesh"]["h_target"] == 0.1
        # the config names the problem only: no output directory, no
        # solver section, no schedule unless the config gives one
        assert set(cfg.canonical) == {"command", "domain", "problem", "mesh"}
        assert "t" not in cfg.problem and "schedule" not in cfg.problem
        assert cfg.config_hash

    @pytest.mark.parametrize("command", ["homotopy", "axisym"])
    def test_removed_command_refused_at_its_path(self, command):
        # a schedule runs the continuation and a ball or spheroid the
        # meridian solve under every command; neither is a command of its own
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": command,
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
            })
        assert exc.value.path == "command"
        assert repr(command) in str(exc.value)

    def test_robin_with_c_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": "solve",
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0, "c": 0.5},
            })
        assert exc.value.path == "problem.c"

    def test_t_out_of_range_rejected(self):
        # the homotopy parameter is no key of the problem, in range or out
        for t in (1.5, 1.0):
            with pytest.raises(ConfigError) as exc:
                parse_config({
                    "command": "solve",
                    "domain": {"type": "disk", "R": 1.0},
                    "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0,
                                "t": t},
                })
            assert exc.value.path == "problem.t"
            assert "unknown key" in str(exc.value)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({
                "command": "solve",
                "domain": {"type": "disk", "R": 1.0, "radius": 2.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
            })
        assert "domain.radius" in str(exc.value)

    def test_seed_and_tolerances_are_unknown_keys(self, tmp_path, capsys):
        # neither section was ever read, and the Newton iteration and its
        # Armijo line search take fixed constants; a config that has one of
        # these sections, even an empty one, is refused
        for section, value in (
                ("seed", 0),
                ("tolerances", {"sign_deadband": 1e-10}),
                ("solver", {}),
                ("solver", {"armijo_factor": 0.5}),
                ("solver", {"armijo_c1": 1e-4}),
                ("solver", {"max_backtracks": 20}),
                ("solver", {"max_iter": 50}),
                ("solver", {"newton_tol": 1e-10})):
            doc = {"command": "solve",
                   "domain": {"type": "disk", "R": 1.0},
                   "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0},
                   section: value}
            with pytest.raises(ConfigError) as exc:
                parse_config(doc)
            assert exc.value.path == section
            assert "unknown key" in str(exc.value)
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(doc))
            assert main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 4
            assert capsys.readouterr().err == \
                f"error: invalid config: {section}: unknown key\n"
            assert not (tmp_path / "out").exists()

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
        assert cfg.canonical["mesh"]["h_target"] == 0.2
        assert cfg.problem["H"] == 0.5

    def test_hash_changes_with_content(self):
        base = {"command": "solve",
                "domain": {"type": "disk", "R": 1.0},
                "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        a = parse_config(base).config_hash
        b = parse_config(apply_overrides(dict(base), ["problem.H=0.5"]))
        assert a != b.config_hash

    @pytest.mark.parametrize("key", ["a", "b", "R"])
    def test_rounded_polygon_rejects_other_keys(self, tmp_path, capsys, key):
        # a key of another domain kind is refused, not dropped
        doc = {"command": "solve",
               "domain": {"type": "rounded_polygon", "r": 0.2,
                          "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                          key: 0.5},
               "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == f"domain.{key}"
        assert "not allowed for rounded_polygon" in str(exc.value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 4
        assert f"domain.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("command", ["solve", "compare", "verify",
                                         "mesh-report"])
    def test_schedule_only_where_a_continuation_runs(self, command, planar):
        # the domain decides, not the command: a continuation runs on a
        # planar domain only
        doc = {"domain": {"type": "disk", "R": 1.0} if planar else
               {"type": "ball", "R": 1.0},
               "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0,
                           "schedule": [0.5, 1.0]}}
        if planar:
            assert parse_config(doc, command).problem["schedule"] == [0.5, 1.0]
            return
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, command)
        assert exc.value.path == "problem.schedule"

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_schedule_runs_a_continuation(self, tmp_path, command):
        code, out = run_cli(tmp_path, command, "robin_ellipse.json")
        assert code == 0
        homotopy = _report(out)["homotopy"]
        assert homotopy["completed"] and len(homotopy["steps"]) == 11
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       10 ** 400],
                             ids=["Infinity", "-Infinity", "NaN", "huge-int"])
    @pytest.mark.parametrize("path", [
        "domain.R", "domain.a", "domain.b", "domain.r", "domain.vertices",
        "problem.H", "problem.c", "problem.alpha", "problem.t",
        "problem.schedule", "mesh.h_target"])
    def test_non_finite_number_names_its_path(self, path, value):
        # JSON decodes NaN and Infinity, and an integer of any size; no
        # numeric field may take a value beyond the float range
        domain = {"domain.a": {"type": "ellipse", "a": 1.3, "b": 0.7},
                  "domain.b": {"type": "ellipse", "a": 1.3, "b": 0.7},
                  "domain.r": {"type": "rounded_polygon", "r": 0.2,
                               "vertices": [[0, 0], [1, 0], [1, 1]]},
                  "domain.vertices": {"type": "rounded_polygon", "r": 0.2,
                                      "vertices": [[0, 0], [1, 0], [1, 1]]}}
        doc = {"domain": domain.get(path, {"type": "disk", "R": 1.0}),
               "problem": {"H": 0.8, "bc": "neumann", "c": 0.5}
               if path == "problem.c" else
               {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        section, key = path.split(".")
        if key == "vertices":
            doc["domain"]["vertices"] = [[0, 0], [1, 0], [value, 1]]
        elif key == "schedule":
            doc["problem"]["schedule"] = [0.0, value, 1.0]
        else:
            doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, "solve")
        assert exc.value.path == path
        # problem.t is no key of the problem: it is refused whatever it holds
        assert ("unknown key" if key == "t" else "must be finite") \
            in str(exc.value)

    @given(kind=st.sampled_from(sorted(DOMAIN_PARAMS)),
           keys=st.sets(st.sampled_from(["R", "a", "b", "r", "vertices"])),
           size=st.floats(0.1, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_accepted_domain_has_exactly_its_keys(self, kind, keys, size):
        values = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
        domain = {"type": kind, **{k: values.get(k, size) for k in keys}}
        doc = {"domain": domain,
               "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        try:
            canonical = parse_config(doc, "solve").domain
        except ConfigError as exc:
            # refused for a missing or a foreign key, and names it
            assert keys != set(DOMAIN_PARAMS[kind])
            assert exc.path in {f"domain.{k}" for k in
                                      keys ^ set(DOMAIN_PARAMS[kind])}
            return
        assert set(canonical) == set(domain) == \
            {"type", *DOMAIN_PARAMS[kind]}


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["homotopy", "--config", "robin_disk.json"],
        ["axisym", "--config", "ball3d_robin.json"],
        ["solve"],
        ["solve", "--config", "robin_disk.json", "--bogus"]],
        ids=["homotopy", "axisym", "no-config", "bogus-flag"])
    def test_usage_error_is_four(self, tmp_path, capsys, monkeypatch, argv):
        # a usage error is an invalid invocation, not a verification
        # failure (2); argparse's usage text still goes to stderr
        monkeypatch.chdir(CONFIGS)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: pmclab") and "error:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]],
                             ids=["pmclab", "solve"])
    def test_help_is_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: pmclab")

    def test_verify_pass_is_zero(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", "robin_disk.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "ok"
        assert rep["verification"]["verdict"] == "pass"

    @pytest.mark.parametrize("config_name, min_count, names", [
        ("robin_ellipse.json", 9, {"homotopy-stability", "index-sum-one"}),
        ("ball3d_robin.json", 4, {"axis-critical-unique",
                                  "axis-hessian-positive", "radial-monotone",
                                  "axial-nodal-single-arc"})],
        ids=["ellipse-homotopy", "ball"])
    def test_verify_checks_the_run_it_solved(self, tmp_path, config_name,
                                             min_count, names):
        code, out = run_cli(tmp_path, "verify", config_name,
                            ["mesh.h_target=0.1"])
        assert code == 0
        verification = json.loads((out / "report.json").read_text())[
            "verification"]
        assert verification["verdict"] == "pass"
        assert len(verification["properties"]) >= min_count
        statuses = {p["name"]: p["status"]
                    for p in verification["properties"]}
        assert all(statuses[name] == "pass" for name in names)

    @pytest.mark.parametrize("domain, problem, h_target", [
        ({"type": "spheroid", "a": 1.0, "b": 0.3},
         {"H": 0.8, "alpha": 1.0, "n_dim": 5}, 0.05),
        ({"type": "ball", "R": 0.1},
         {"H": 8.0, "alpha": 10.0, "n_dim": 3}, 0.005)],
        ids=["oblate-spheroid-n5", "ball3d-dilated-0.1"])
    def test_valid_meridian_run_passes(self, tmp_path, domain, problem,
                                       h_target):
        # the suite judges the solution only: a valid run does not fail on
        # the accuracy of the weighted mesh measure (the second run is the
        # ball3d_robin golden dilated by 0.1)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "command": "verify", "domain": domain,
            "problem": {"bc": "robin", **problem},
            "mesh": {"h_target": h_target}}))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out", str(out)])
        rep = _report(out)
        assert (code, rep["status"], rep["verification"]["verdict"]) == \
            (0, "ok", "pass")

    def test_contact_circle_stays_in_the_cylinder_strip(self, tmp_path):
        # the matched cylinder exists only on |x1 - c| < 1/H, which clips the
        # unit disk at H = 1.9; a valid config must not exit 4 because the
        # contact property sampled outside the clipped mesh
        H = 1.9
        with pytest.warns(UserWarning, match="clips the mesh"):
            code, out = run_cli(tmp_path, "verify", "robin_disk.json",
                                [f"problem.H={H}", "mesh.h_target=0.05"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        contact = {p["name"]: p for p in rep["verification"]["properties"]}[
            "cylinder-contact"]
        assert contact["status"] == "pass"
        assert 0.0 < contact["measured"]["radius"] < 1.0 / H

    def test_thin_ellipse_index_loop_warns(self, tmp_path):
        # the 2h inward offset of the boundary folds outside the domain
        # where 2h exceeds the tip radius b^2/a = 0.01; the index property
        # has no loop to count on there, which a valid config must not
        # turn into exit 4
        code, out = run_cli(tmp_path, "verify", "robin_ellipse.json",
                            ["domain.a=1.0", "domain.b=0.1",
                             "mesh.h_target=0.05"])
        assert code == 0
        props = {p["name"]: p
                 for p in _report(out)["verification"]["properties"]}
        assert props.pop("index-sum-one")["note"].endswith(
            "the loop leaves the mesh")
        assert {p["status"] for p in props.values()} <= {"pass", "skip"}

    def test_meridian_weight_beyond_float32_range(self, tmp_path):
        # the r^38 weight near the axis underflows single precision; the
        # preconditioner factors the diagonally scaled Jacobian, so the
        # solve still converges (the verdict waits on the quadrature)
        code, out = run_cli(tmp_path, "verify", "ball3d_robin.json",
                            ["problem.n_dim=40", "mesh.h_target=0.05"])
        assert code != 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["solve"]["converged"]

    def test_mesh_quality_failure_is_four(self, tmp_path):
        # the meshers raise only during set-up: the config asks for a mesh
        # that cannot reach the quality bounds
        code, out = run_cli(tmp_path, "verify", "robin_ellipse.json",
                            ["domain.a=1.0", "domain.b=0.05",
                             "mesh.h_target=0.2"])
        assert code == 4
        rep = _report(out)
        assert rep["status"] == "invalid-config"
        assert "three vertices on the loop" in rep["error"]

    @pytest.mark.parametrize("a, b, message", [
        ("1.0", "1e-200", "overflows"), ("1e-200", "1.0", "flat loop")],
        ids=["overflowing-ratio", "flat-simplex"])
    def test_degenerate_ellipse_is_four(self, tmp_path, a, b, message):
        # the schema accepts any positive axes; an ellipse too thin to mesh
        # is an invalid config, reported, not a traceback
        code, out = run_cli(tmp_path, "verify", "robin_ellipse.json",
                            [f"domain.a={a}", f"domain.b={b}"])
        assert code == 4
        rep = _report(out)
        assert rep["status"] == "invalid-config"
        assert message in rep["error"]

    def test_robin_breakdown_names_the_ellipticity_margin(self, tmp_path):
        # the report counts the iterate the solve broke down at
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["problem.H=2.6", "mesh.h_target=0.2"])
        assert code == 3
        rep = _report(out)
        margin = rep["solve"]["ellipticity_min"]
        assert isinstance(margin, float) and 0.0 < margin < 1.0
        assert f"smallest ellipticity margin {margin:.3g}:" in rep["error"]

    def test_infeasible_is_four_and_no_solve(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", "neumann_infeasible.json")
        assert code == 4
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "infeasible"
        assert rep["solve"] is None
        assert rep["feasibility"]["feasible"] is False
        # no property ran, and the report says why
        assert rep["verification"] is None
        assert "flux bound violated" in rep["error"]
        assert not (out / "solution.csv").exists()

    def test_continuation_gated_at_t_one(self, tmp_path, monkeypatch):
        steps = []
        monkeypatch.setattr(pmclab.solver, "newton_solve",
                            lambda disc, spec, **kw: steps.append(spec.H))
        code, out = run_cli(tmp_path, "verify", "neumann_infeasible.json",
                            ["problem.schedule=[0.0,0.5,1.0]"])
        assert code == 4
        rep = _report(out)
        assert rep["status"] == "infeasible"
        assert rep["homotopy"] is None
        assert not (out / "solution.csv").exists()
        # at small t the cap of the data (tH, tc) is near tc and would pass:
        # only the gate at the end of the schedule, the run's own data,
        # refuses this run, before its first step
        feas = rep["feasibility"]
        assert feas["feasible"] is False
        assert feas["flux_bound"] == pytest.approx(0.5 / math.sqrt(1.25),
                                                   rel=1e-15)
        assert 0.5 * feas["boundary_length"] > 1.0 * feas["area"]
        assert steps == []

    def test_solve_infeasible_gated_upstream(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", "neumann_infeasible.json")
        assert code == 4

    def test_invalid_config_is_four(self, tmp_path, capsys):
        # the homotopy parameter is no key of the problem
        code, out = run_cli(tmp_path, "verify", "robin_disk.json",
                            ["problem.t=1.5"])
        assert code == 4
        assert capsys.readouterr().err == \
            "error: invalid config: problem.t: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("problem, path, message", [
        ({"H": 0.0, "bc": "robin", "alpha": 1.0}, "problem.H", "must be > 0"),
        ({"H": -0.5, "bc": "robin", "alpha": 1.0}, "problem.H",
         "must be > 0"),
        ({"H": 0.6, "bc": "neumann"}, "problem.c", "required"),
        ({"H": 0.8, "bc": "robin"}, "problem.alpha", "required"),
        ({"H": 0.6, "bc": "neumann", "c": -0.1}, "problem.c", "must be > 0"),
        ({"H": 0.8, "bc": "robin", "alpha": 0.0}, "problem.alpha",
         "must be > 0"),
        ({"H": 0.6, "bc": "neumann", "c": 0.5, "alpha": 1.0},
         "problem.alpha", "not allowed with Neumann data"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "c": 0.5}, "problem.c",
         "not allowed with Robin data"),
        ({"H": 0.8, "bc": "dirichlet", "alpha": 1.0}, "problem.bc",
         "must be one of"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "n_dim": 1},
         "problem.n_dim", "must be an integer >= 2"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "schedule": []},
         "problem.schedule", "expected a non-empty list"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0,
          "schedule": [0.0, 0.5, 0.4, 1.0]},
         "problem.schedule", "must be strictly increasing"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "schedule": [-0.5, 1.0]},
         "problem.schedule", "must be >= 0"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "schedule": [0.5, 1.5]},
         "problem.schedule", "must be <= 1"),
        ({"H": 0.8, "bc": "robin", "alpha": 1.0, "schedule": [0.0, 0.5]},
         "problem.schedule", "must end at t = 1")],
        ids=["H-zero", "H-negative", "c-missing", "alpha-missing",
             "c-negative", "alpha-zero", "neumann-with-alpha",
             "robin-with-c", "unknown-bc", "n_dim-1", "schedule-empty",
             "schedule-decreasing", "schedule-below-0", "schedule-above-1",
             "schedule-short-of-1"])
    def test_inadmissible_data_is_four(self, tmp_path, capsys, problem,
                                       path, message):
        # the config is the one place these are refused: the numerical core
        # takes the data it validated as given
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"domain": {"type": "disk", "R": 1.0},
                                   "problem": problem}))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {path}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{"],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_config_is_four(self, tmp_path, capsys, content):
        # JSON is UTF-8 whatever the locale: bytes that do not decode are a
        # config that cannot be read, like a missing file, not a traceback
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("override", ["domain.R=Infinity",
                                          "problem.H=Infinity"])
    def test_non_finite_override_is_four(self, tmp_path, capsys, override):
        code, out = run_cli(tmp_path, "verify", "robin_disk.json", [override])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: "
                              f"{override.split('=')[0]}: must be finite")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unusable_output_directory_is_four(self, tmp_path, capsys):
        # a path through an existing file cannot be a directory
        blocker = tmp_path / "report.json"
        blocker.write_text("")
        code = main(["mesh-report", "--config", str(CONFIGS / "robin_disk.json"),
                     "--out", str(blocker / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command, overrides", [
        ("verify", ["problem.schedule=[0.5,1.0]"]),
        ("solve", ["problem.schedule=[1.0]"])])
    def test_meridian_schedule_is_four(self, tmp_path, command, overrides):
        # continuation runs on planar domains only; a schedule on a domain
        # of revolution must not be accepted and then ignored
        code, out = run_cli(tmp_path, command, "ball3d_robin.json", overrides)
        assert code == 4
        assert not (out / "solution.csv").exists()

    def test_non_finite_mesh_vertex_is_four(self, tmp_path, monkeypatch):
        # a NaN vertex would pass the cell area check and give h = nan; the
        # mesh refuses it like any mesh the quality bounds reject
        triangulate = pmclab.pipeline.triangulate

        def with_nan_vertex(domain, h_target):
            mesh = triangulate(domain, h_target)
            vertices = mesh.vertices.copy()
            vertices[-1] = math.nan
            return TriMesh(vertices, mesh.cells, mesh.boundary_edges)

        monkeypatch.setattr(pmclab.pipeline, "triangulate", with_nan_vertex)
        code, out = run_cli(tmp_path, "verify", "robin_disk.json",
                            ["mesh.h_target=0.2"])
        assert code == 4
        rep = _report(out)
        assert rep["status"] == "invalid-config"
        assert "non-finite" in rep["error"]

    def test_nonconvergence_is_three(self, tmp_path, monkeypatch):
        robin = ["problem.H=2.6", "mesh.h_target=0.2"]
        for command, config_name, overrides, max_iter in (
                ("solve", "robin_disk.json", robin, 10),
                ("verify", "robin_disk.json", robin, 10),
                ("verify", "neumann_disk.json", ["mesh.h_target=0.2"], 1)):
            case = f"{command} {config_name}"
            monkeypatch.setattr(pmclab.solver, "_MAX_ITER", max_iter)
            code, out = run_cli(tmp_path / case, command, config_name,
                                overrides)
            assert code == 3, case
            rep = json.loads((out / "report.json").read_text())
            assert rep["status"] == "solver-failure", case
            assert rep["solve"]["converged"] is False, case
            assert rep["error"], case
            assert rep["verification"] is None, case
            # Neumann data passed the gate before the solve failed
            assert (rep["feasibility"] is not None) == \
                (config_name == "neumann_disk.json"), case

    def test_failed_continuation_reports_its_steps(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(pmclab.solver, "_MAX_ITER", 12)
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["problem.H=2.6", "mesh.h_target=0.2",
                             f"problem.schedule={ELEVEN_STEPS}"])
        assert code == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "solver-failure"
        assert rep["error"]
        homotopy = rep["homotopy"]
        assert homotopy["completed"] is False
        assert homotopy["halved_at"]
        ts = [s["t"] for s in homotopy["steps"]]
        assert ts and ts == sorted(ts) and ts[-1] < 1.0
        assert all(s["minima"] == 1 for s in homotopy["steps"])
        assert not (out / "solution.csv").exists()


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
        # each value in its shortest round-trip form, as repr writes it
        assert lines[3:] == [",".join(map(repr, row)) for row in rows]

    @pytest.mark.parametrize("config_name", ["robin_disk.json",
                                             "ball3d_robin.json"])
    def test_mesh_summary_computed_once(self, tmp_path, monkeypatch,
                                        config_name):
        # the minimum angle is the quality gate's, the hash is taken once
        # for report.json and solution.csv
        geometry = pmclab.geometry
        angles, hashes = [], []
        min_angles, sha256 = geometry._cell_min_angles_deg, geometry.sha256

        def counted_angles(*args):
            angles.append(min_angles(*args))
            return angles[-1]

        def counted_sha256(*args):
            hashes.append(args)
            return sha256(*args)

        monkeypatch.setattr(geometry, "_cell_min_angles_deg", counted_angles)
        monkeypatch.setattr(geometry, "sha256", counted_sha256)
        code, out = run_cli(tmp_path, "verify", config_name,
                            ["mesh.h_target=0.1"])
        assert code == 0
        assert len(angles) == len(hashes) == 1
        rep = _report(out)
        assert rep["mesh"]["min_angle_deg"] == float(angles[0].min())
        assert (out / "solution.csv").read_text().splitlines()[1] \
            == f"# mesh={rep['mesh']['mesh_hash']}"

    def test_output_directory_is_out_then_config(self, tmp_path, capsys,
                                                 monkeypatch):
        # --out names the output directory, by default ./out; the config
        # names the problem only, and the environment plays no part
        doc = {"command": "mesh-report", "domain": {"type": "disk", "R": 1.0},
               "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        monkeypatch.setenv("OUT_DIR", str(tmp_path / "from-env"))
        monkeypatch.chdir(tmp_path)
        assert main(["mesh-report", "--config", str(config)]) == 0
        assert main(["mesh-report", "--config", str(config),
                     "--out", str(tmp_path / "from-flag")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "from-flag", "out"]
        assert _report(tmp_path / "out") == _report(tmp_path / "from-flag")
        # a config that names an output directory is refused, and nothing
        # is written
        config.write_text(json.dumps(
            {**doc, "output_dir": str(tmp_path / "from-config")}))
        assert main(["mesh-report", "--config", str(config),
                     "--out", str(tmp_path / "refused")]) == 4
        assert capsys.readouterr().err == \
            "error: invalid config: output_dir: unknown key\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "from-flag", "out"]

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
        # solve runs the config's schedule
        code, out = run_cli(tmp_path, "solve", "robin_disk.json",
                            ["mesh.h_target=0.15",
                             f"problem.schedule={ELEVEN_STEPS}"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["homotopy"]["steps"]) == 11
        assert all(s["minima"] == 1 for s in rep["homotopy"]["steps"])

    def test_axisym_command(self, tmp_path):
        # solve on a ball solves on the meridian section and reports the
        # axisym block and the axial nodal set
        code, out = run_cli(tmp_path, "solve", "ball3d_robin.json",
                            ["mesh.h_target=0.1"])
        assert code == 0
        assert (out / "nodal_arcs.csv").exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["critical_points"] == []
        assert rep["axisym"]["monotone"]["holds"]
        entries = rep["axisym"]["axis_hessian"]["entries"]
        assert all(e > 0 for e in entries)
        assert math.fsum(entries) == pytest.approx(0.8, rel=0.1)


class TestArtifactText:
    """The table writers format many rows at once; their text is the
    row-by-row ``%r`` text, to the byte."""

    @staticmethod
    def row_by_row_csv(vertices, values):
        rows = np.column_stack([vertices, values]).ravel().tolist()
        return ("# config=c\n# mesh=m\nx1,x2,value\n"
                + "%r,%r,%r\n" * len(vertices) % tuple(rows))

    @pytest.mark.parametrize("vertices", [
        [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [1.5, -0.0], [-0.0, 1.5]],
        [[5e-324, -5e-324], [2.2250738585072014e-308, 1.7976931348623157e308],
         [-1e300, 1e-310], [5e-324, 1e300], [-1.7976931348623157e308, 0.1]],
        np.random.default_rng(3).normal(size=(40, 2)),
    ], ids=["signed-zeros", "subnormal-and-huge", "no-repeats"])
    def test_solution_csv(self, tmp_path, vertices):
        vertices = np.asarray(vertices, dtype=float)
        values = np.linspace(-1.0, 1.0, len(vertices))
        values[:3] = (-0.0, 5e-324, 1e308)
        mesh = types.SimpleNamespace(vertices=vertices,
                                     n_vertices=len(vertices),
                                     mesh_hash=lambda: "m")
        text = write_solution_csv(tmp_path, mesh, values, "c").read_text()
        assert text == self.row_by_row_csv(vertices, values)

    def test_solution_csv_on_a_lattice_mesh(self, tmp_path, disk_mesh_01):
        values = disk_mesh_01.vertices[:, 0] ** 2
        text = write_solution_csv(tmp_path, disk_mesh_01, values,
                                  "c").read_text()
        assert text == self.row_by_row_csv(disk_mesh_01.vertices, values) \
            .replace("# mesh=m", f"# mesh={disk_mesh_01.mesh_hash()}")

    @pytest.mark.parametrize("junction", [None, np.array([-0.0, 1e-300])])
    def test_nodal_csv(self, tmp_path, junction):
        arcs = [np.array([[0.1, -0.0], [0.2, 1 / 3]]),
                np.array([[5e-324, 1e300], [-2.5, 0.0], [7.0, 7.0]])]
        lines = ["# config=c", "arc_id,seq,x1,x2"]
        for aid, arc in enumerate(arcs):
            for k, (x, y) in enumerate(arc):
                lines.append(f"{aid},{k},{float(x)!r},{float(y)!r}")
        if junction is not None:
            lines.append(f"# junction={float(junction[0])!r},"
                         f"{float(junction[1])!r}")
        path = write_nodal_csv(tmp_path, NodalArcSet(arcs, junction), "c")
        assert path.read_text() == "\n".join(lines) + "\n"
        empty = write_nodal_csv(tmp_path, NodalArcSet([]), "c")
        assert empty.read_text() == "# config=c\narc_id,seq,x1,x2\n"

    def test_svg_paths(self, tmp_path, robin_disk_01):
        field, _ = robin_disk_01
        text = write_contours_svg(tmp_path, field, "c").read_text()
        paths = [line.split('"')[1] for line in text.splitlines()
                 if line.startswith("<path")]
        assert len(paths) > 1 and all(p.startswith("M ") for p in paths)
        for d in paths:
            pairs = d[2:].split(" L ")
            assert pairs == ["{:.2f} {:.2f}".format(*map(float, p.split()))
                             for p in pairs]


class TestCanonicalJson:
    """A record is written as the dict of its fields.  Each expected dict
    is the record as the report has always held it, spelled out here."""

    @staticmethod
    def assert_writes(record, expected):
        assert canonical_json(record) == canonical_json(expected)

    @pytest.mark.parametrize("index", [None, np.int64(1)])
    def test_critical_point_record(self, index):
        rec = CriticalPointRecord(
            location=np.array([0.25, -0.5]), grad_norm=np.float64(1e-9),
            hessian=np.array([[1.5, 0.125], [0.125, 2.0]]),
            gauss_curvature=np.float64(2.984375), classification="minimum",
            index=index, scale=2.0)
        self.assert_writes(rec, {
            "location": [0.25, -0.5], "grad_norm": 1e-9,
            "hessian": [[1.5, 0.125], [0.125, 2.0]],
            "gauss_curvature": 2.984375, "classification": "minimum",
            "index": None if index is None else 1, "scale": 2.0})

    def test_monotone_report(self):
        rep = MonotoneReport(holds=np.bool_(True), min_value=np.float64(0.0),
                             location=np.zeros(2), tol=1e-8, marginal=True)
        self.assert_writes(rep, {"holds": True, "min_value": 0.0,
                                 "location": [0.0, 0.0], "tol": 1e-8,
                                 "marginal": True})

    def test_axis_hessian(self):
        ah = AxisHessian(location=np.array([0.0, 0.125]),
                         entries=np.array([0.25, 0.25, 0.3]),
                         cross_term=np.float64(-1e-3), grad_residual=1e-6)
        self.assert_writes(ah, {"location": [0.0, 0.125],
                                "entries": [0.25, 0.25, 0.3],
                                "cross_term": -1e-3, "grad_residual": 1e-6})

    def test_feasibility_report(self):
        rep = FeasibilityReport(
            feasible=False, borderline=np.bool_(False), margin=-0.5,
            flux_bound=np.float64(0.25), required_mean_flux=0.75,
            boundary_length=6.25, area=3.125)
        self.assert_writes(rep, {
            "feasible": False, "borderline": False, "margin": -0.5,
            "flux_bound": 0.25, "required_mean_flux": 0.75,
            "boundary_length": 6.25, "area": 3.125})

    def test_solve_report_with_a_non_finite_residual(self):
        rep = SolveReport(converged=False, iterations=3,
                          final_residual_norm=math.inf,
                          damping_history=[1.0, 0.5],
                          ellipticity_min=np.float64(0.03),
                          message="linear solve broke down", factorizations=1,
                          krylov_iterations=[0, 4])
        self.assert_writes(rep, {
            "converged": False, "iterations": 3, "final_residual_norm": "inf",
            "damping_history": [1.0, 0.5], "normalization": "none",
            "flux_scale": None, "ellipticity_min": 0.03,
            "message": "linear solve broke down", "factorizations": 1,
            "krylov_iterations": [0, 4]})

    def test_verification_report_nests_property_records(self):
        prop = PropertyRecord(
            name="critical-count-unique", claim="exactly one", status="pass",
            measured={"count": np.int64(1),
                      "locations": [np.array([0.125, 0.0])]},
            tolerances={"rtol": 0.1})
        expected_prop = {
            "name": "critical-count-unique", "claim": "exactly one",
            "status": "pass",
            "measured": {"count": 1, "locations": [[0.125, 0.0]]},
            "tolerances": {"rtol": 0.1}, "note": ""}
        self.assert_writes(prop, expected_prop)
        self.assert_writes(VerificationReport(properties=[prop],
                                              verdict="pass"),
                           {"properties": [expected_prop], "verdict": "pass"})


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path / "a", "verify", "robin_disk.json",
                          ["mesh.h_target=0.1"])
        _, out2 = run_cli(tmp_path / "b", "verify", "robin_disk.json",
                          ["mesh.h_target=0.1"])
        for name in ("report.json", "solution.csv", "critical_points.csv",
                     "contours.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("config", ["robin_ellipse.json",
                                        "neumann_disk.json"])
    def test_golden_report_independent_of_blas_threads(self, tmp_path,
                                                       config):
        # a runner's core count must not reach the bytes of a report; at
        # h 0.02 (N about 10^4) the solver's vectors are long enough for a
        # threaded BLAS to split its sums (README)
        src = str(Path(pmclab.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "pmclab", "verify", "--config",
                 str(CONFIGS / config), "--override", "mesh.h_target=0.02",
                 "--out", str(out)],
                env=env, capture_output=True, check=True, timeout=120)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


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
        # compare measures the contact against the matched cylinder only
        assert set(compare["nodal"]) == {"critical_point", "value",
                                         "contact_radius", "cylinder"}
        cylinder = compare["nodal"]["cylinder"]
        for key in ("sector_count", "fitted_order", "fit_residual"):
            assert cylinder[key] == contact[key], key
        assert compare["nodal"]["contact_radius"] == contact["radius"]
        for key in ("mesh", "solve", "critical_points"):
            assert compare[key] == verify[key], key

    def test_verify_homotopy_matches_homotopy_command(self, tmp_path):
        # the config's schedule drives the same continuation under every
        # command
        args = ("robin_ellipse.json", ["mesh.h_target=0.15"])
        runs = {}
        for command in ("solve", "compare", "verify"):
            code, out = run_cli(tmp_path / command, command, *args)
            assert code == 0, command
            solution = (out / "solution.csv").read_text().splitlines()
            runs[command] = (_report(out), solution[1:])
        rep, solution = runs["solve"]
        homotopy = rep["homotopy"]
        assert homotopy["completed"] and len(homotopy["steps"]) == 11
        for command in ("compare", "verify"):
            other, other_solution = runs[command]
            assert other["homotopy"] == homotopy, command
            assert other["critical_points"] == rep["critical_points"], \
                command
            assert other_solution == solution, command

    @pytest.mark.parametrize("command", ["verify", "solve", "compare"])
    def test_continuation_census_taken_once_per_step(self, tmp_path,
                                                     monkeypatch, command):
        # the report's critical points are the census of the last step,
        # which is the census of the returned field at t = 1
        census = pmclab.critical.find_critical_points
        calls = []

        def counted(field, spec, **kwargs):
            records = census(field, spec, **kwargs)
            calls.append((field, spec))
            return records

        for name, mod in list(sys.modules.items()):
            if name.startswith("pmclab") and \
                    getattr(mod, "find_critical_points", None) is census:
                monkeypatch.setattr(mod, "find_critical_points", counted)
        code, out = run_cli(tmp_path, command, "robin_ellipse.json")
        assert code == 0
        assert len(calls) == 11
        field, spec = calls[-1]
        assert spec.H == 0.5          # the config's own data
        assert _report(out)["critical_points"] == \
            json.loads(canonical_json(census(field, spec)))

    def test_meridian_neumann_gate(self, tmp_path):
        cfg = tmp_path / "ball_neumann.json"
        cfg.write_text(json.dumps({
            "domain": {"type": "ball", "R": 1.0},
            "problem": {"H": 0.8, "bc": "neumann", "c": 0.2, "n_dim": 3},
            "mesh": {"h_target": 0.1}}))
        reports = {}
        for command in ("solve", "verify", "mesh-report"):
            out = tmp_path / command
            code = main([command, "--config", str(cfg), "--out", str(out)])
            reports[command] = (code, _report(out), out)
        for command in ("solve", "verify"):
            code, rep, out = reports[command]
            assert code == 4, command
            assert rep["status"] == "infeasible", command
            assert rep["feasibility"]["feasible"] is False, command
            assert not (out / "solution.csv").exists(), command
        assert reports["solve"][1]["feasibility"] == \
            reports["verify"][1]["feasibility"]
        code, rep, _ = reports["mesh-report"]
        assert code == 0
        assert rep["mesh"]["mesh_hash"] == \
            reports["solve"][1]["mesh"]["mesh_hash"] == \
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


def test_make_goldens_leaf_diffs():
    # the golden diff names every differing leaf, missing entries included
    path = REPO / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old = {"a": 1.0, "b": [1, 2], "c": {"d": True}, "f": [0.5]}
    new = {"a": 1.5, "b": [1], "c": {"d": 1}, "e": "x", "f": [0.5]}
    assert list(script.leaf_diffs(old, new)) == [
        (".a", 1.0, 1.5), (".b[1]", 2, "<absent>"), (".c.d", True, 1),
        (".e", "<absent>", "x")]
    assert list(script.leaf_diffs(old, old)) == []
    # a moved count does not hide the float moves
    old = {"n": 0, "x": [0.25, 1.0], "s": "a"}
    new = {"n": 5, "x": [0.25 + 3e-13, 1.0], "s": "b"}
    assert script.summary("g", list(script.leaf_diffs(old, new))) == (
        "g: 3 leaves differ: 1 float (max |d| 3e-13), 1 integer, 1 other")
    assert script.summary("g", []) == (
        "g: 0 leaves differ: 0 float (max |d| 0), 0 integer, 0 other")
