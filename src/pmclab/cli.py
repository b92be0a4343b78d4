"""Batch front door: configuration in, machine-readable artifacts out.

Subcommands: solve, homotopy, axisym, compare (the nodal laboratory),
verify, and mesh-report.  This module parses the arguments and the config,
keeps the report skeleton, maps exceptions to exit codes and writes the
artifacts; the work itself is :mod:`pmclab.pipeline` (set-up, Neumann gate,
solve, diagnostics) and, for ``verify``, :func:`pmclab.verify.run_suite`.
Every run writes a ``report.json`` (always, with a status field, even on
failure) plus the solution, critical-point, and nodal-arc CSV tables and a
contour SVG where applicable.

Exit codes: 0 success / verification pass, 2 verification failure, 3 solver
nonconvergence, 4 invalid configuration or infeasible data.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import artifacts as art
from . import pipeline
from .config import apply_overrides, parse_config
from .critical import find_critical_points
from .errors import (ConfigError, InfeasibleProblemError, InvalidParameterError,
                     LinearSolveFailure, PmclabError, SolverFailure)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_SOLVER_FAIL = 3
EXIT_INVALID = 4


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pmclab",
        description="solve and verify prescribed-mean-curvature boundary "
                    "value problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "single Newton solve at the configured t"),
            ("homotopy", "continuation over a schedule of t values"),
            ("axisym", "meridian solve for a domain of revolution"),
            ("compare", "nodal laboratory: comparison-surface diagnostics"),
            ("verify", "full property suite with pass/fail verdict"),
            ("mesh-report", "triangulate only and report mesh quality")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        import json
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ConfigError("$", "top level must be an object")
        doc = apply_overrides(doc, args.override)
        config = parse_config(doc, command=args.command)
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = args.out or os.environ.get("OUT_DIR") or config.output_dir
    return run(config, out_dir)


def run(config, out_dir=None):
    """Execute one configured run, writing artifacts into the output directory."""
    out = Path(out_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "status": "ok",
        "command": config.command,
        "config_hash": config.config_hash,
        "domain": config.domain,
        "problem": config.problem,
        "mesh": None,
        "feasibility": None,
        "solve": None,
        "homotopy": None,
        "axisym": None,
        "nodal": None,
        "critical_points": [],
        "verification": None,
        "artifacts": {},
        "exit_code": EXIT_OK,
    }
    try:
        code = _dispatch(config, out, report)
    except InfeasibleProblemError as exc:
        report["status"] = "infeasible"
        if exc.feasibility is not None:
            report["feasibility"] = exc.feasibility.as_dict()
        code = EXIT_INVALID
    except SolverFailure as exc:
        report["status"] = "solver-failure"
        if exc.report is not None:
            report["solve"] = exc.report.as_dict()
        code = EXIT_SOLVER_FAIL
    except LinearSolveFailure as exc:
        report["status"] = "solver-failure"
        report["error"] = str(exc)
        code = EXIT_SOLVER_FAIL
    except (ConfigError, InvalidParameterError) as exc:
        report["status"] = "invalid-config"
        report["error"] = str(exc)
        code = EXIT_INVALID
    except PmclabError as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        code = EXIT_SOLVER_FAIL
    report["exit_code"] = code
    art.write_report(out, report)
    return code


def _dispatch(config, out, report):
    if config.command == "verify":
        return _run_verify(config, out, report)
    run = pipeline.setup(config.canonical)
    report["mesh"] = _mesh_summary(run.mesh)
    if config.command == "mesh-report":
        return EXIT_OK

    # continuation runs for `homotopy` only; `solve` and `compare` ignore
    # a schedule
    schedule = config.problem["schedule"] if config.command == "homotopy" \
        else None
    field, feas, solve_report, trace = pipeline.solve(run, schedule)
    if feas is not None:
        report["feasibility"] = feas.as_dict()
    if trace is not None:
        report["homotopy"] = _homotopy_summary(trace)
    else:
        report["solve"] = solve_report.as_dict()

    records, arcs = [], None
    if run.problem is not None:
        report["axisym"] = pipeline.axisym_summary(field, run.spec.n_dim)
        arcs = pipeline.axial_nodal_set(field)
    else:
        records = find_critical_points(field, run.spec)
        report["critical_points"] = [r.as_dict() for r in records]
        if config.command == "compare":
            report["nodal"], arcs = pipeline.nodal_lab(
                field, run.spec, records, run.domain.diameter)
    if arcs is not None:
        art.write_nodal_csv(out, arcs, config.config_hash)
        report["artifacts"]["nodal_arcs_csv"] = "nodal_arcs.csv"
    _write_field_artifacts(out, config, field, records, report, nodal=arcs)
    return EXIT_OK


def _homotopy_summary(trace):
    return {"completed": trace.completed,
            "steps": [{"t": s.t, "minima": s.n_minima, "maxima": s.n_maxima,
                       "saddles": s.n_saddles, "critical": s.n_critical,
                       "morse_ok": s.morse_ok, "field_min": s.field_min,
                       "field_max": s.field_max} for s in trace.steps]}


def _mesh_summary(mesh):
    return {"n_vertices": mesh.n_vertices, "n_cells": mesh.n_cells,
            "h": mesh.h, "min_angle_deg": mesh.min_angle_deg(),
            "area": float(mesh.cell_areas.sum()),
            "boundary_length": float(mesh.boundary_lengths.sum()),
            "mesh_hash": mesh.mesh_hash()}


def _run_verify(config, out, report):
    result = run_suite(config.canonical)
    report["mesh"] = _mesh_summary(result.mesh)
    if result.feasibility is not None:
        report["feasibility"] = result.feasibility.as_dict()
    report["verification"] = result.report.as_dict()
    if result.solve_report is not None:
        report["solve"] = result.solve_report.as_dict()
    if result.trace is not None:
        report["homotopy"] = _homotopy_summary(result.trace)
    if result.records:
        report["critical_points"] = [r.as_dict() for r in result.records]

    if result.status != "ok":        # infeasible | solver-failure
        report["status"] = result.status
        return EXIT_INVALID if result.status == "infeasible" \
            else EXIT_SOLVER_FAIL

    _write_field_artifacts(out, config, result.field, result.records, report)
    if result.report.verdict == "pass":
        return EXIT_OK
    report["status"] = "verification-fail"
    return EXIT_VERIFY_FAIL


def _write_field_artifacts(out, config, field, records, report, nodal=None):
    art.write_solution_csv(out, field.mesh, field.values, config.config_hash)
    report["artifacts"]["solution_csv"] = "solution.csv"
    art.write_critical_csv(out, records, config.config_hash)
    report["artifacts"]["critical_points_csv"] = "critical_points.csv"
    art.write_contours_svg(out, field, config.config_hash, nodal=nodal)
    report["artifacts"]["contours_svg"] = "contours.svg"
