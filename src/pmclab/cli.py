"""Batch front door: configuration in, machine-readable artifacts out.

Subcommands: solve, compare (the nodal laboratory), verify, and
mesh-report.  The config names the problem, the subcommand what is reported
and ``--out`` (default ``out``) where.  This module parses the arguments and
the config, keeps the report skeleton, maps exceptions to exit codes and
writes the artifacts.  Every command runs the chain of
:mod:`pmclab.pipeline`: set-up (of the meridian section for a ball or
spheroid), the solve (a continuation when the config has a schedule, else
one Newton solve) and diagnostics, and records the Neumann gate,
:func:`pmclab.assembly.neumann_gate`, between set-up and solve; ``verify``
then evaluates the property suite on the solved run with
:func:`pmclab.verify.run_suite`.  Every run writes a ``report.json``
(always; on failure with the status and the error) plus the solution,
critical-point, and nodal-arc CSV tables and a contour SVG where
applicable.

Exit codes: 0 success / verification pass, 2 verification failure, 3 solver
nonconvergence, 4 invalid usage or configuration (an unknown subcommand or
flag, a mesh the quality bounds reject and an output directory that cannot
be created included) or infeasible data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import artifacts as art
from . import pipeline
from .assembly import neumann_gate
from .config import apply_overrides, parse_config
from .errors import (ConfigError, InfeasibleProblemError, InvalidParameterError,
                     MeshQualityError, PmclabError, SolverFailure)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_SOLVER_FAIL = 3
EXIT_INVALID = 4

# status and exit code of a failed run by exception type; first match wins
_FAILURES = ((InfeasibleProblemError, "infeasible", EXIT_INVALID),
             (SolverFailure, "solver-failure", EXIT_SOLVER_FAIL),
             ((ConfigError, InvalidParameterError, MeshQualityError),
              "invalid-config", EXIT_INVALID),
             (PmclabError, "error", EXIT_SOLVER_FAIL))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pmclab",
        description="solve and verify prescribed-mean-curvature boundary "
                    "value problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "solve, over the config's schedule if it has one"),
            ("compare", "nodal laboratory: contact with the matched cylinder"),
            ("verify", "full property suite with pass/fail verdict"),
            ("mesh-report", "triangulate only and report mesh quality")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage or the help; a usage error is an
        # invalid invocation, not a verification failure
        return EXIT_INVALID if exc.code else EXIT_OK

    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ConfigError("$", "top level must be an object")
        config = parse_config(apply_overrides(doc, args.override),
                              command=args.command)
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID

    return run(config, args.out)


def run(config, out_dir):
    """Execute one configured run, writing artifacts into ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # a block the run did not compute stays null
    report = dict.fromkeys(("mesh", "feasibility", "solve", "homotopy",
                            "axisym", "nodal", "verification"))
    report.update(status="ok", command=config.command,
                  config_hash=config.config_hash, domain=config.domain,
                  problem=config.problem, critical_points=[], artifacts={},
                  exit_code=EXIT_OK)
    try:
        code = _dispatch(config, out, report)
    except PmclabError as exc:
        report["status"], code = next(
            (status, exit_code) for kind, status, exit_code in _FAILURES
            if isinstance(exc, kind))
        report["error"] = str(exc)
        # what the failing stage had computed: the Neumann gate's report,
        # the Newton report, the steps a continuation completed
        feas, solve, trace = (getattr(exc, name, None)
                              for name in ("feasibility", "report", "trace"))
        if feas is not None:
            report["feasibility"] = feas
        if solve is not None:
            report["solve"] = solve
        if trace is not None:
            report["homotopy"] = _homotopy_summary(trace)
    report["exit_code"] = code
    art.write_report(out, report)
    return code


def _dispatch(config, out, report):
    run = pipeline.setup(config.canonical)
    report["mesh"] = _mesh_summary(run.mesh)
    if config.command == "mesh-report":
        return EXIT_OK

    # a continuation ends at the problem's own data (H, c), where the flux
    # bound is tightest: infeasible data fails before its first step
    report["feasibility"] = neumann_gate(run.disc, run.spec)
    schedule = config.problem.get("schedule")
    field, solve_report, trace = pipeline.solve(run, schedule)
    if trace is not None:
        report["homotopy"] = _homotopy_summary(trace)
    else:
        report["solve"] = solve_report

    records, arcs, verification = [], None, None
    if run.spec.n_dim == 2:
        records = pipeline.census(field, run.spec, trace)
        report["critical_points"] = records
        if config.command == "compare":
            report["nodal"], arcs = pipeline.nodal_lab(
                field, run.spec, records, run.domain.diameter)
    elif config.command != "verify":
        # the property suite checks the meridian diagnostics itself
        report["axisym"] = pipeline.axisym_summary(field, run.spec.n_dim)
        arcs = pipeline.axial_nodal_set(field)
    if config.command == "verify":
        verification = run_suite(run, field, records, trace)
        report["verification"] = verification
    if arcs is not None:
        art.write_nodal_csv(out, arcs, config.config_hash)
        report["artifacts"]["nodal_arcs_csv"] = "nodal_arcs.csv"
    _write_field_artifacts(out, config, field, records, report, nodal=arcs)
    if verification is not None and verification.verdict == "fail":
        report["status"] = "verification-fail"
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _homotopy_summary(trace):
    return {"completed": trace.completed, "halved_at": trace.halved_at,
            "steps": [{"t": s.t, "minima": s.n_minima, "maxima": s.n_maxima,
                       "saddles": s.n_saddles, "critical": s.n_critical,
                       "morse_ok": s.morse_ok, "field_min": s.field_min,
                       "field_max": s.field_max,
                       "iterations": s.solve.iterations,
                       "krylov_iterations": s.solve.krylov_iterations,
                       "factorizations": s.solve.factorizations}
                      for s in trace.steps]}


def _mesh_summary(mesh):
    return {"n_vertices": mesh.n_vertices, "n_cells": mesh.n_cells,
            "h": mesh.h, "min_angle_deg": mesh.min_angle_deg(),
            "area": float(mesh.cell_areas.sum()),
            "boundary_length": float(mesh.boundary_lengths.sum()),
            "mesh_hash": mesh.mesh_hash()}


def _write_field_artifacts(out, config, field, records, report, nodal=None):
    art.write_solution_csv(out, field.mesh, field.values, config.config_hash)
    report["artifacts"]["solution_csv"] = "solution.csv"
    art.write_critical_csv(out, records, config.config_hash)
    report["artifacts"]["critical_points_csv"] = "critical_points.csv"
    art.write_contours_svg(out, field, config.config_hash, nodal=nodal)
    report["artifacts"]["contours_svg"] = "contours.svg"
