"""Qualitative theory as a pass/fail property suite over computed solutions.

Each property turns one qualitative statement about solutions (sign
conditions, uniqueness and non-degeneracy of the critical point, absence of
interior maxima, index counting, saddle/multiple-minima equivalence,
homotopy stability, second-order contact against the cylinder surface, and
the axisymmetric analogues) into a measured check with explicit tolerances.
The suite fails closed: only registered property names may be reported.

:func:`run_suite` runs the shared :mod:`pmclab.pipeline` (set-up, Neumann
gate, solve) for planar and meridian configs alike, with one error path for
infeasible data and solver failures, then evaluates the properties that
apply to the run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import axisym as axi
from . import pipeline
from .critical import (DEGENERACY_TOL, find_critical_points, gradient_index,
                       interior_max_scan, inward_offset_loop)
from .errors import (IllConditionedLoopError, InfeasibleProblemError,
                     InvalidParameterError, LinearSolveFailure,
                     NoAxisCriticalError, PmclabError, SolverFailure)

SIGN_DEADBAND = 1e-10
TRACE_RTOL = 0.1
COARSE_MESH_FACTOR = 0.3   # h above this fraction of the diameter: warn only

PROPERTY_CLAIMS = {
    "solution-negative":
        "the solution is negative throughout the closed domain (Robin data)",
    "boundary-outflux-positive":
        "the outward normal derivative is positive everywhere on the boundary",
    "critical-count-unique":
        "the solution has exactly one interior critical point",
    "critical-is-minimum":
        "every critical point is an interior minimum",
    "critical-nondegenerate":
        "the Hessian determinant is bounded away from zero at every critical "
        "point",
    "no-interior-maximum":
        "the solution has no interior local maximum",
    "index-sum-one":
        "the gradient winding on an inward-offset boundary loop is +1 and "
        "equals the sum of the critical point indices",
    "hessian-trace-identity":
        "the Hessian trace at each critical point equals H",
    "saddle-equivalence":
        "at least two minima exist if and only if some critical point has "
        "negative Hessian determinant",
    "homotopy-stability":
        "every continuation step has exactly one minimum, no saddle, and "
        "non-degenerate critical points; at t=0 the Hessian determinant at "
        "the critical point is positive",
    "cylinder-contact":
        "the difference against the matched cylinder surface shows "
        "second-order (four-sector) contact, never the degenerate six-sector "
        "pattern with contact order three or more",
    "axis-critical-unique":
        "the revolved solution has exactly one critical point and it lies "
        "on the symmetry axis",
    "axis-hessian-positive":
        "all diagonal Hessian entries at the axis critical point are positive",
    "radial-monotone":
        "the radial derivative of the meridian solution is positive away "
        "from the axis",
    "axial-nodal-single-arc":
        "the zero set of the axial derivative is a single curve from the "
        "axis to the outer boundary",
    "revolved-volume-consistency":
        "the weighted discrete volume matches the analytic volume of "
        "revolution to second order in h",
}


@dataclass
class PropertyRecord:
    name: str
    claim: str
    status: str                  # pass | fail | warn | skip
    measured: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)
    note: str = ""

    def as_dict(self):
        return asdict(self)


def _record(name, status, measured=None, tolerances=None, note=""):
    if name not in PROPERTY_CLAIMS:
        raise InvalidParameterError(f"unknown verification property {name!r}")
    return PropertyRecord(name=name, claim=PROPERTY_CLAIMS[name], status=status,
                          measured=measured or {}, tolerances=tolerances or {},
                          note=note)


@dataclass
class VerificationReport:
    properties: list
    verdict: str                 # pass | fail | error
    provenance: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


def _aggregate(properties, error=False):
    if error:
        return "error"
    return "fail" if any(p.status == "fail" for p in properties) else "pass"


# -- individual properties -----------------------------------------------------

def verify_sign_conditions(field, spec, deadband=SIGN_DEADBAND):
    """Negativity of Robin solutions and positivity of the boundary outflux."""
    if spec.bc != "robin":
        note = "sign conditions are specific to Robin data; the Neumann " \
               "outflux du/dn = c > 0 holds by prescription"
        return [_record("solution-negative", "skip", note=note),
                _record("boundary-outflux-positive", "skip", note=note)]
    v = field.values
    k = int(np.argmax(v))
    max_u = float(v[k])
    rec1 = _record(
        "solution-negative",
        "pass" if max_u < -deadband else "fail",
        measured={"max_value": max_u,
                  "argmax": [float(x) for x in field.mesh.vertices[k]]},
        tolerances={"deadband": deadband})
    bidx = np.nonzero(field.mesh.is_boundary_vertex)[0]
    outflux = -spec.alpha * v[bidx]
    j = int(np.argmin(outflux))
    rec2 = _record(
        "boundary-outflux-positive",
        "pass" if outflux[j] > deadband else "fail",
        measured={"min_outflux": float(outflux[j]),
                  "argmin": [float(x) for x in field.mesh.vertices[bidx[j]]]},
        tolerances={"deadband": deadband})
    return [rec1, rec2]


def verify_critical_structure(field, spec, records=None, boundary_loop=None,
                              trace_rtol=TRACE_RTOL, diam=None):
    """Uniqueness, minimality, non-degeneracy, no maxima, and index count."""
    if records is None:
        records = find_critical_points(field, spec)
    out = []
    coarse = diam is not None and field.mesh.h > COARSE_MESH_FACTOR * diam

    count_ok = len(records) == 1
    out.append(_record(
        "critical-count-unique",
        "pass" if count_ok else ("warn" if coarse else "fail"),
        measured={"count": len(records),
                  "locations": [r.as_dict()["location"] for r in records]},
        note="mesh too coarse to resolve interior structure" if coarse else ""))

    minima_ok = bool(records) and all(r.classification == "minimum"
                                      for r in records)
    out.append(_record(
        "critical-is-minimum", "pass" if minima_ok else "fail",
        measured={"classifications": [r.classification for r in records]}))

    morse_ok = bool(records) and all(
        abs(r.gauss_curvature) > DEGENERACY_TOL * r.scale ** 2 for r in records)
    out.append(_record(
        "critical-nondegenerate", "pass" if morse_ok else "fail",
        measured={"gauss_curvatures": [r.gauss_curvature for r in records],
                  "scales": [r.scale for r in records]},
        tolerances={"degeneracy_tol": DEGENERACY_TOL}))

    maxima = interior_max_scan(field)
    out.append(_record(
        "no-interior-maximum", "pass" if not maxima else "fail",
        measured={"interior_maxima": len(maxima)}))

    if boundary_loop is None:
        out.append(_record("index-sum-one", "skip",
                           note="no boundary offset loop available"))
    else:
        try:
            loop_index = gradient_index(field, boundary_loop)
            idx_sum = sum(r.index for r in records if r.index is not None)
            ok = loop_index == 1 and idx_sum == loop_index and \
                all(r.index is not None for r in records)
            out.append(_record(
                "index-sum-one", "pass" if ok else "fail",
                measured={"loop_index": loop_index, "index_sum": idx_sum,
                          "indices": [r.index for r in records]}))
        except IllConditionedLoopError as exc:
            out.append(_record("index-sum-one", "warn",
                               note=f"loop ill-conditioned: {exc}"))

    out.append(_trace_record([float(np.trace(r.hessian)) for r in records],
                             spec.H, trace_rtol))
    return out


def _trace_record(traces, H, rtol):
    ok = bool(traces) and all(abs(tr - H) <= rtol * H for tr in traces)
    return _record("hessian-trace-identity", "pass" if ok else "fail",
                   measured={"traces": traces, "H": H},
                   tolerances={"rtol": rtol})


def verify_saddle_equivalence(records):
    """Biconditional between multiple minima and a negative-determinant point."""
    n_min = sum(1 for r in records if r.classification == "minimum")
    n_saddle = sum(1 for r in records if r.classification == "saddle")
    left = n_min >= 2
    right = n_saddle >= 1
    return _record(
        "saddle-equivalence", "pass" if left == right else "fail",
        measured={"n_minima": n_min, "n_saddles": n_saddle,
                  "two_or_more_minima": left, "saddle_exists": right})


def verify_homotopy_stability(trace):
    """Per-step census along the continuation path."""
    if not trace.completed:
        return _record(
            "homotopy-stability", "warn",
            measured={"steps_recorded": len(trace.steps),
                      "schedule": list(trace.schedule)},
            note="continuation ended early; partial data only")
    bad = []
    t0_positive = True
    for step in trace.steps:
        if not (step.n_minima == 1 and step.n_saddles == 0 and step.morse_ok):
            bad.append(step.t)
        if step.t == 0.0:
            t0_positive = all(r.gauss_curvature > 0 for r in step.records)
    ok = not bad and t0_positive
    return _record(
        "homotopy-stability", "pass" if ok else "fail",
        measured={"steps": [{"t": s.t, "minima": s.n_minima,
                             "saddles": s.n_saddles, "morse_ok": s.morse_ok}
                            for s in trace.steps],
                  "offending_t": bad, "t0_determinant_positive": t0_positive})


def verify_cylinder_contact(field, spec, records, diam):
    """Second-order contact of the solution against its matched cylinder."""
    if len(records) != 1:
        return _record("cylinder-contact", "skip",
                       note="needs a unique critical point")
    p = records[0].location
    mesh = field.mesh
    r_contact = pipeline.contact_radius(mesh, p, diam)
    if r_contact < 4.0 * mesh.h:
        return _record("cylinder-contact", "skip",
                       note="mesh too coarse for the contact circle")
    _, diff = pipeline.matched_cylinder(field, spec, p)
    sectors, fit = pipeline.contact_order(diff, p, r_contact, mesh.h)
    degenerate = sectors >= 6 and fit.k >= 3.0
    return _record(
        "cylinder-contact", "fail" if degenerate else "pass",
        measured={"sector_count": sectors, "fitted_order": fit.k,
                  "fit_residual": fit.residual, "radius": r_contact},
        tolerances={"degenerate_when": "sectors >= 6 and order >= 3"})


# -- axisymmetric properties ----------------------------------------------------

def verify_meridian_structure(field, spec, problem, disc,
                              trace_rtol=TRACE_RTOL):
    out = []
    mesh = field.mesh
    mono = axi.check_monotone(field)
    out.append(_record(
        "radial-monotone", "pass" if mono.holds else "fail",
        measured=mono.as_dict()))

    try:
        crossings = axi.find_axis_critical(field)
        unique_ok = len(crossings) == 1 and mono.holds
        out.append(_record(
            "axis-critical-unique", "pass" if unique_ok else "fail",
            measured={"axis_crossings": crossings,
                      "off_axis_excluded_by_monotonicity": mono.holds}))
    except PmclabError as exc:
        out.append(_record("axis-critical-unique", "fail",
                           note=f"axis scan failed: {exc}"))
        crossings = []

    try:
        ah = axi.axis_hessian(field, spec.n_dim)
        entries = ah.entries
        pos_ok = bool(np.all(entries > 0))
        cross_ok = abs(ah.cross_term) <= 0.1 * float(np.min(np.abs(entries)))
        out.append(_record(
            "axis-hessian-positive", "pass" if (pos_ok and cross_ok) else "fail",
            measured=ah.as_dict(),
            tolerances={"cross_term_rtol": 0.1}))
        out.append(_trace_record([float(np.sum(entries))], spec.H,
                                 trace_rtol))
    except (NoAxisCriticalError, InvalidParameterError) as exc:
        out.append(_record("axis-hessian-positive", "fail", note=str(exc)))
        out.append(_record("hessian-trace-identity", "fail", note=str(exc)))

    arc_ok, arc_info = _single_axis_to_outer_arc(
        pipeline.axial_nodal_set(field), mesh)
    out.append(_record(
        "axial-nodal-single-arc", "pass" if arc_ok else "fail",
        measured=arc_info))

    v_disc = axi.revolved_volume(disc)
    v_exact = _spheroid_volume(problem, spec.n_dim)
    vol_tol = max(1.0 * mesh.h ** 2 * v_exact, 1e-12)
    out.append(_record(
        "revolved-volume-consistency",
        "pass" if abs(v_disc - v_exact) <= vol_tol else "fail",
        measured={"discrete": v_disc, "analytic": v_exact},
        tolerances={"abs_tol": vol_tol}))
    return out


def _single_axis_to_outer_arc(arcset, mesh):
    arcs = arcset.arcs
    info = {"n_arcs": len(arcs)}
    if len(arcs) != 1:
        return False, info
    arc = arcs[0]
    ends = arc[[0, -1]]
    r_ends = sorted(float(e[0]) for e in ends)
    info["end_r"] = r_ends
    # one endpoint near the axis, the other near the outer boundary
    near_axis = r_ends[0] <= 2.0 * mesh.h
    outer_r = mesh.vertices[:, 0].max()
    bidx = np.unique(mesh.boundary_edges.ravel())
    outer_pts = mesh.vertices[bidx][mesh.vertices[bidx, 0] > 2.0 * mesh.h]
    d_outer = float(np.min(np.linalg.norm(
        outer_pts - ends[np.argmax(ends[:, 0])], axis=1))) if len(outer_pts) \
        else np.inf
    info["outer_endpoint_distance"] = d_outer
    info["outer_r"] = float(outer_r)
    return bool(near_axis and d_outer <= 2.0 * mesh.h), info


def _spheroid_volume(problem, n):
    # volume of the full spheroid of revolution in dimension n:
    # unit-ball volume times a^(n-1) b
    unit = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return unit * problem.a ** (n - 1) * problem.b


# -- the suite ------------------------------------------------------------------

@dataclass
class SuiteResult:
    status: str                      # ok | infeasible | solver-failure
    report: VerificationReport = None
    mesh: object = None
    field: object = None
    solve_report: object = None
    trace: object = None
    records: list = dc_field(default_factory=list)
    feasibility: object = None


def run_suite(config):
    """Solve per the configuration and evaluate every applicable property;
    aggregates a verification report with a pass/fail/error verdict.

    Continuation runs when the config carries a schedule (planar domains
    only).  Infeasible Neumann data and solver failures give an empty
    report with verdict ``error``.
    """
    cfg = config.canonical if hasattr(config, "canonical") else dict(config)
    run = pipeline.setup(cfg)
    res = SuiteResult(status="ok", mesh=run.mesh)
    provenance = {"config_hash": cfg.get("config_hash", ""),
                  "mesh_h": run.mesh.h, "mesh_hash": run.mesh.mesh_hash()}
    if run.problem is not None:
        provenance["n_dim"] = run.spec.n_dim
    try:
        res.field, res.feasibility, res.solve_report, res.trace = \
            pipeline.solve(run, cfg["problem"].get("schedule"))
    except InfeasibleProblemError as exc:
        res.status, res.feasibility = "infeasible", exc.feasibility
        provenance.update(feasibility=exc.feasibility.as_dict(),
                          error=str(exc))
    except (SolverFailure, LinearSolveFailure) as exc:
        res.status = "solver-failure"
        rep = getattr(exc, "report", None)
        provenance.update(error=str(exc),
                          solver=rep.as_dict() if rep else None)
    if res.status != "ok":
        res.report = VerificationReport(properties=[], verdict="error",
                                        provenance=provenance)
        return res

    field, spec = res.field, run.spec
    props = verify_sign_conditions(field, spec)
    if run.problem is not None:
        props += verify_meridian_structure(field, spec, run.problem,
                                           run.disc)
    else:
        res.records = find_critical_points(field, spec)
        diam = run.domain.diameter
        loop = inward_offset_loop(run.domain, 2.0 * run.mesh.h)
        props += verify_critical_structure(field, spec, res.records,
                                           boundary_loop=loop, diam=diam)
        props.append(verify_saddle_equivalence(res.records))
        if res.trace is not None:
            props.append(verify_homotopy_stability(res.trace))
        props.append(verify_cylinder_contact(field, spec, res.records, diam))

    provenance["solver"] = res.solve_report.as_dict() \
        if res.solve_report else None
    res.report = VerificationReport(properties=props, verdict=_aggregate(props),
                                    provenance=provenance)
    return res
