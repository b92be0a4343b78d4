"""Qualitative theory as a pass/fail property suite over computed solutions.

Each property turns one qualitative statement about solutions (negativity
of Robin solutions, uniqueness and non-degeneracy of the critical point,
absence of interior maxima, index counting, saddle/multiple-minima
equivalence, homotopy stability, second-order contact against the cylinder
surface, and the axisymmetric analogues) into a measured check with
explicit tolerances.  Every property is computed from the solved field (or
the continuation that produced it), never from the mesh or the data alone.
The suite fails closed: only registered property names may be reported.

:func:`run_suite` evaluates the properties that apply to a run the shared
:mod:`pmclab.pipeline` has set up and solved, planar and meridian alike.
It solves nothing: a run whose solve fails has no properties to check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import axisym as axi
from . import pipeline
from .critical import (DEGENERACY_TOL, gradient_index, interior_max_scan,
                       inward_offset_loop)
from .errors import IllConditionedLoopError, InvalidParameterError, PmclabError

SIGN_DEADBAND = 1e-10
TRACE_RTOL = 0.1
COARSE_MESH_FACTOR = 0.3   # h above this fraction of the diameter: warn only

PROPERTY_CLAIMS = {
    "solution-negative":
        "the solution is negative throughout the closed domain (Robin data)",
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
}


@dataclass
class PropertyRecord:
    name: str
    claim: str
    status: str                  # pass | fail | warn | skip
    measured: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)
    note: str = ""


def _record(name, status, measured=None, tolerances=None, note=""):
    if name not in PROPERTY_CLAIMS:
        raise InvalidParameterError(f"unknown verification property {name!r}")
    return PropertyRecord(name=name, claim=PROPERTY_CLAIMS[name], status=status,
                          measured=measured or {}, tolerances=tolerances or {},
                          note=note)


@dataclass
class VerificationReport:
    properties: list
    verdict: str                 # pass | fail


# -- individual properties -----------------------------------------------------

def verify_sign_conditions(field, spec):
    """Negativity of Robin solutions."""
    if spec.bc != "robin":
        return [_record(
            "solution-negative", "skip",
            note="sign conditions are specific to Robin data; a Neumann "
                 "solution is fixed only up to a constant and is reported "
                 "mean-normalized")]
    v = field.values
    k = int(np.argmax(v))
    max_u = float(v[k])
    return [_record(
        "solution-negative",
        "pass" if max_u < -SIGN_DEADBAND else "fail",
        measured={"max_value": max_u,
                  "argmax": [float(x) for x in field.mesh.vertices[k]]},
        tolerances={"deadband": SIGN_DEADBAND})]


def verify_critical_structure(field, spec, records, boundary_loop, diam):
    """Uniqueness, minimality, non-degeneracy, no maxima, and index count of
    the census ``records``; the index is counted on ``boundary_loop``."""
    out = []
    coarse = field.mesh.h > COARSE_MESH_FACTOR * diam

    count_ok = len(records) == 1
    out.append(_record(
        "critical-count-unique",
        "pass" if count_ok else ("warn" if coarse else "fail"),
        measured={"count": len(records),
                  "locations": [r.location for r in records]},
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

    try:
        loop_index = gradient_index(field, boundary_loop)
        indices = [r.index for r in records]
        idx_sum = sum(i for i in indices if i is not None)
        # a local index that could not be computed leaves the sum unchecked,
        # as an ill-conditioned boundary loop leaves the loop index
        unknown = indices.count(None)
        status = "fail" if loop_index != 1 else "warn" if unknown else \
            "pass" if idx_sum == 1 else "fail"
        out.append(_record(
            "index-sum-one", status,
            measured={"loop_index": loop_index, "index_sum": idx_sum,
                      "indices": indices},
            note=f"{unknown} local index(es) could not be computed"
            if status == "warn" else ""))
    except IllConditionedLoopError as exc:
        out.append(_record("index-sum-one", "warn",
                           note=f"loop ill-conditioned: {exc}"))

    out.append(_trace_record([float(np.trace(r.hessian)) for r in records],
                             spec.H))
    return out


def _trace_record(traces, H):
    ok = bool(traces) and all(abs(tr - H) <= TRACE_RTOL * H for tr in traces)
    return _record("hessian-trace-identity", "pass" if ok else "fail",
                   measured={"traces": traces, "H": H},
                   tolerances={"rtol": TRACE_RTOL})


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
    """Per-step census along a completed continuation path."""
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
    _, radius, _, order = pipeline.cylinder_contact(
        field, spec, records[0].location, diam)
    if order is None:
        return _record("cylinder-contact", "skip",
                       note="mesh too coarse for the contact circle")
    sectors, fit = order
    degenerate = sectors >= 6 and fit.k >= 3.0
    return _record(
        "cylinder-contact", "fail" if degenerate else "pass",
        measured={"sector_count": sectors, "fitted_order": fit.k,
                  "fit_residual": fit.residual, "radius": radius},
        tolerances={"degenerate_when": "sectors >= 6 and order >= 3"})


# -- axisymmetric properties ----------------------------------------------------

def verify_meridian_structure(field, spec):
    """Radial monotonicity, the unique axis critical point, its Hessian and
    trace, and the axial nodal arc of a meridian solution."""
    out = []
    mesh = field.mesh
    summary = pipeline.axisym_summary(field, spec.n_dim)
    mono = summary["monotone"]
    out.append(_record(
        "radial-monotone", "pass" if mono.holds else "fail",
        measured=asdict(mono)))

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

    ah = summary["axis_hessian"]
    if isinstance(ah, dict):
        out.append(_record("axis-hessian-positive", "fail", note=ah["error"]))
        out.append(_record("hessian-trace-identity", "fail", note=ah["error"]))
    else:
        entries = ah.entries
        pos_ok = bool(np.all(entries > 0))
        cross_ok = abs(ah.cross_term) <= 0.1 * float(np.min(np.abs(entries)))
        out.append(_record(
            "axis-hessian-positive", "pass" if (pos_ok and cross_ok) else "fail",
            measured=asdict(ah),
            tolerances={"cross_term_rtol": 0.1}))
        out.append(_trace_record([float(np.sum(entries))], spec.H))

    arc_ok, arc_info = _single_axis_to_outer_arc(
        pipeline.axial_nodal_set(field), mesh)
    out.append(_record(
        "axial-nodal-single-arc", "pass" if arc_ok else "fail",
        measured=arc_info))
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
    bidx = np.flatnonzero(mesh.is_boundary_vertex)
    outer_pts = mesh.vertices[bidx][mesh.vertices[bidx, 0] > 2.0 * mesh.h]
    d_outer = float(np.min(np.linalg.norm(
        outer_pts - ends[np.argmax(ends[:, 0])], axis=1))) if len(outer_pts) \
        else np.inf
    info["outer_endpoint_distance"] = d_outer
    info["outer_r"] = float(outer_r)
    return bool(near_axis and d_outer <= 2.0 * mesh.h), info


# -- the suite ------------------------------------------------------------------

def run_suite(run, field, records, trace=None):
    """Every property that applies to ``field``, solved on the
    :class:`pmclab.pipeline.Setup` ``run``, and their pass/fail verdict.
    ``records`` is the census of a planar field (empty for a meridian one),
    ``trace`` the continuation that produced the field, if any."""
    spec = run.spec
    props = verify_sign_conditions(field, spec)
    if run.spec.n_dim > 2:
        props += verify_meridian_structure(field, spec)
    else:
        diam = run.domain.diameter
        loop = inward_offset_loop(run.domain, 2.0 * run.mesh.h)
        props += verify_critical_structure(field, spec, records, loop, diam)
        props.append(verify_saddle_equivalence(records))
        if trace is not None:
            props.append(verify_homotopy_stability(trace))
        props.append(verify_cylinder_contact(field, spec, records, diam))
    failed = any(p.status == "fail" for p in props)
    return VerificationReport(properties=props,
                              verdict="fail" if failed else "pass")
