"""The chain every command runs: set-up, Neumann gate, solve, diagnostics.

One validated config goes through :func:`setup` (problem data, the planar
domain or the meridian profile of a domain of revolution, the mesh and its
discretization) and :func:`solve` (the Neumann gate
:func:`~pmclab.assembly.neumann_gate`, then homotopy continuation or one
Newton solve).  The diagnostics that both the commands and the property
suite report are computed here too: the axial nodal set of a meridian solution
and the contact of a planar solution with its matched cylinder.  ``cli``
turns the results into artifacts and ``verify`` into property records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import axisym as axi
from .assembly import Discretization, ProblemSpec, ScalarField, neumann_gate
from .critical import recover_gradient
from .errors import InvalidParameterError, PmclabError
from .geometry import make_disk, make_ellipse, make_rounded_polygon, triangulate
from .nodal import (cylinder_solution, difference_field, leading_order_fit,
                    quadratic_model, sector_count, trace_nodal_set)
from .solver import SolverOptions, homotopy_solve, newton_solve

MERIDIAN_DOMAINS = ("ball", "spheroid")


def build_domain(domain_cfg):
    kind = domain_cfg["type"]
    if kind == "disk":
        return make_disk(domain_cfg["R"])
    if kind == "ellipse":
        return make_ellipse(domain_cfg["a"], domain_cfg["b"])
    if kind == "rounded_polygon":
        return make_rounded_polygon(domain_cfg["vertices"], domain_cfg["r"])
    raise InvalidParameterError(f"unknown planar domain type {kind!r}")


def build_spec(problem_cfg):
    kw = {"t": problem_cfg["t"], "n_dim": problem_cfg["n_dim"]}
    if problem_cfg["bc"] == "neumann":
        return ProblemSpec.neumann(problem_cfg["H"], problem_cfg["c"], **kw)
    return ProblemSpec.robin(problem_cfg["H"], problem_cfg["alpha"], **kw)


@dataclass(frozen=True)
class Setup:
    """A meshed run: exactly one of ``domain`` (planar) and ``problem``
    (meridian profile of a domain of revolution) is set.  The dimension and
    the boundary data are read from ``spec``; ``disc`` is the one
    :class:`Discretization` every solve of the run assembles on."""

    spec: ProblemSpec
    disc: Discretization
    opts: SolverOptions
    domain: object = None
    problem: object = None

    @property
    def mesh(self):
        return self.disc.mesh


def setup(cfg):
    """Problem data, domain, mesh and discretization of a canonical config
    dict.  A meridian run weights its measure by r^(n-2) and carries flux
    on the outer edges only; a planar run has no weight and flux on every
    boundary edge."""
    spec = build_spec(cfg["problem"])
    opts = SolverOptions(**cfg.get("solver", {}))
    h_target = cfg["mesh"]["h_target"]
    dom = cfg["domain"]
    if dom["type"] in MERIDIAN_DOMAINS:
        a, b = (dom["R"], dom["R"]) if dom["type"] == "ball" else \
            (dom["a"], dom["b"])
        problem = axi.MeridianProblem(a=a, b=b)
        mesh = axi.meridian_mesh(problem, h_target)
        disc = Discretization(mesh, spec.n_dim - 2,
                              axi.outer_flux_edges(mesh))
        return Setup(spec, disc, opts, problem=problem)
    domain = build_domain(dom)
    return Setup(spec, Discretization(triangulate(domain, h_target)), opts,
                 domain=domain)


def solve(run, schedule=None):
    """Gate Neumann data, then run continuation over ``schedule`` when one
    is given, else one Newton solve.

    A continuation is gated at its last step, t = 1, where the flux bound
    is tightest, so infeasible data fails before the first step.  Returns
    (field, feasibility report or None, solve report or None, homotopy
    trace or None).
    """
    feas = neumann_gate(run.disc, run.spec.at_t(1.0) if schedule else run.spec)
    if schedule:
        field, trace = homotopy_solve(run.disc, run.spec, schedule,
                                      opts=run.opts)
        return field, feas, None, trace
    field, report = newton_solve(run.disc, run.spec, opts=run.opts)
    return field, feas, report, None


def axisym_summary(field, n_dim):
    """Radial monotonicity and the axis Hessian of a meridian solution."""
    info = {"n_dim": n_dim, "monotone": axi.check_monotone(field).as_dict()}
    try:
        info["axis_hessian"] = axi.axis_hessian(field, n_dim).as_dict()
    except PmclabError as exc:
        info["axis_hessian"] = {"error": str(exc)}
    return info


def axial_nodal_set(field):
    """Zero set of the axial derivative v_z of a meridian solution."""
    return trace_nodal_set(ScalarField(field.mesh,
                                       recover_gradient(field)[:, 1]))


# -- contact with the matched cylinder ----------------------------------------

def contact_radius(mesh, center, diam):
    """Radius of the contact disk at ``center``: 0.3 of the domain diameter,
    or half the distance to the nearest boundary vertex when smaller."""
    bidx = np.unique(mesh.boundary_edges.ravel())
    dist = float(np.linalg.norm(mesh.vertices[bidx] - center, axis=1).min())
    return min(0.3 * diam, 0.5 * dist)


def matched_cylinder(field, spec, center):
    """The solution value at ``center`` and the difference field against
    the cylinder surface matched to it there."""
    value = float(field.mesh.interpolate(field.values, center[None, :])[0])
    cyl = cylinder_solution(value, spec.H, center=center)
    return value, difference_field(field, cyl)


def contact_order(diff, center, radius, h):
    """Sector count of ``diff`` on the contact circle and its leading-order
    fit over radii from max(2h, radius/8) to ``radius``."""
    fit = leading_order_fit(diff, center, max(2.0 * h, radius / 8.0), radius)
    return sector_count(diff, center, radius), fit


def nodal_lab(field, spec, records, diam):
    """Comparison-surface diagnostics at the unique critical point.

    Returns the report entry and the nodal arcs of the difference against
    the matched cylinder (None without a unique critical point).
    """
    if len(records) != 1:
        return {"note": "nodal laboratory needs a unique critical point",
                "n_critical": len(records)}, None
    mesh = field.mesh
    p = records[0].location
    value, diff_cyl = matched_cylinder(field, spec, p)
    radius = contact_radius(mesh, p, diam)
    info = {"critical_point": [float(p[0]), float(p[1])], "value": value,
            "contact_radius": radius}
    if radius < 4.0 * mesh.h:
        info["note"] = "mesh too coarse for contact diagnostics"
        return info, trace_nodal_set(diff_cyl)
    hess = records[0].hessian
    quad = quadratic_model(value, hess[0, 0], hess[1, 1], center=p)
    for name, diff in (("cylinder", diff_cyl),
                       ("quadratic", difference_field(field, quad))):
        sectors, fit = contact_order(diff, p, radius, mesh.h)
        info[name] = {"sector_count": sectors, "fitted_order": fit.k,
                      "fit_residual": fit.residual, "amplitude": fit.amplitude}
    return info, trace_nodal_set(diff_cyl)
