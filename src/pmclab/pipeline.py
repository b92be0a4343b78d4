"""The chain every command runs: set-up, solve, diagnostics.

One validated config goes through :func:`setup` (problem data, the planar
domain or the meridian section of a domain of revolution, built from the
keys ``config.DOMAIN_PARAMS`` names, the mesh and its discretization) and
:func:`solve` (one Newton solve, or a homotopy continuation in the data
(H, c) that ends at the run's own data); between the two ``cli`` records
the Neumann gate :func:`~pmclab.assembly.neumann_gate` of the run's problem
data.  The diagnostics that both the commands and the property suite
report are computed here only: the meridian summary and axial nodal set,
and :func:`cylinder_contact`, the contact of a planar solution with its
matched cylinder.  ``cli`` turns the results into artifacts and ``verify``
into property records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import axisym as axi
from .assembly import Discretization, ProblemSpec, ScalarField
from .config import DOMAIN_PARAMS
from .critical import find_critical_points, recover_gradient
from .errors import PmclabError
from .geometry import make_disk, make_ellipse, make_rounded_polygon, triangulate
from .nodal import (CylinderSolution, difference_field, leading_order_fit,
                    sector_count, trace_nodal_set)
from .solver import homotopy_solve, newton_solve


_FACTORIES = {"disk": make_disk, "ball": make_disk, "ellipse": make_ellipse,
              "spheroid": make_ellipse, "rounded_polygon": make_rounded_polygon}


def build_domain(domain_cfg):
    kind = domain_cfg["type"]
    return _FACTORIES[kind](*(domain_cfg[key] for key in DOMAIN_PARAMS[kind]))


def build_spec(problem_cfg):
    return ProblemSpec(**{key: val for key, val in problem_cfg.items()
                          if key != "schedule"})


@dataclass(frozen=True)
class Setup:
    """A meshed run.  The dimension and the boundary data are read from
    ``spec``; a run in dimension n > 2 is meridian, and its ``domain`` is
    the meridian section of the domain of revolution.  ``disc`` is the one
    :class:`Discretization` every solve of the run assembles on."""

    spec: ProblemSpec
    disc: Discretization
    domain: object

    @property
    def mesh(self):
        return self.disc.mesh


def setup(cfg):
    """Problem data, domain, mesh and discretization of a canonical config
    dict.  The measure is weighted by r^(n-2): one on a planar mesh, and on
    a meridian mesh zero on the axis, which is the axis condition."""
    spec = build_spec(cfg["problem"])
    h_target = cfg["mesh"]["h_target"]
    domain = build_domain(cfg["domain"])
    meshing = axi.meridian_mesh if spec.n_dim > 2 else triangulate
    disc = Discretization(meshing(domain, h_target), spec.n_dim - 2)
    return Setup(spec, disc, domain)


def solve(run, schedule=None):
    """Homotopy continuation over ``schedule`` when one is given, else one
    Newton solve.  Returns (field, solve report or None, homotopy trace or
    None)."""
    if schedule:
        field, trace = homotopy_solve(run.disc, run.spec, schedule)
        return field, None, trace
    field, report = newton_solve(run.disc, run.spec)
    return field, report, None


def census(field, spec, trace=None):
    """Critical points of a planar solution.  After a continuation they are
    the census its last step took of the same field under the same
    problem data."""
    if trace is not None:
        return trace.steps[-1].records
    return find_critical_points(field, spec)


def axisym_summary(field, n_dim):
    """Radial monotonicity and the axis Hessian of a meridian solution; a
    failed axis Hessian is ``{"error": message}``."""
    info = {"n_dim": n_dim, "monotone": axi.check_monotone(field)}
    try:
        info["axis_hessian"] = axi.axis_hessian(field, n_dim)
    except PmclabError as exc:
        info["axis_hessian"] = {"error": str(exc)}
    return info


def axial_nodal_set(field):
    """Zero set of the axial derivative v_z of a meridian solution."""
    return trace_nodal_set(ScalarField(field.mesh,
                                       recover_gradient(field)[:, 1]))


# -- contact with the matched cylinder ----------------------------------------

def cylinder_contact(field, spec, p, diam):
    """Contact at the critical point ``p`` with the cylinder surface matched
    to the solution there: (value at p, contact radius, the difference
    field, (sector count, order fit), or None for a radius below 4h).

    The radius is 0.3 of the domain diameter, or half the distance to the
    nearest boundary vertex, or 1/H - 2h when smaller: the cylinder exists
    only on |x1 - p1| < 1/H, and the difference is clipped to that strip."""
    mesh = field.mesh
    value = float(mesh.interpolate(field.values, p[None, :])[0])
    diff = difference_field(field, CylinderSolution(value, spec.H, center=p))
    bidx = np.flatnonzero(mesh.is_boundary_vertex)
    dist = float(np.linalg.norm(mesh.vertices[bidx] - p, axis=1).min())
    radius = min(0.3 * diam, 0.5 * dist, 1.0 / spec.H - 2.0 * mesh.h)
    if radius < 4.0 * mesh.h:
        return value, radius, diff, None
    fit = leading_order_fit(diff, p, max(2.0 * mesh.h, radius / 8.0), radius)
    return value, radius, diff, (sector_count(diff, p, radius), fit)


def nodal_lab(field, spec, records, diam):
    """Contact with the matched cylinder at the unique critical point: the
    report entry, and the nodal arcs of the difference against the cylinder
    (None without a unique critical point).  The entry holds the critical
    point, the value there and the contact radius, and under ``cylinder``
    the sector count and the leading-order fit of the difference."""
    if len(records) != 1:
        return {"note": "nodal laboratory needs a unique critical point",
                "n_critical": len(records)}, None
    p = records[0].location
    value, radius, diff, order = cylinder_contact(field, spec, p, diam)
    info = {"critical_point": [float(p[0]), float(p[1])], "value": value,
            "contact_radius": radius}
    if order is None:
        info["note"] = "mesh too coarse for contact diagnostics"
    else:
        sectors, fit = order
        info["cylinder"] = {"sector_count": sectors, "fitted_order": fit.k,
                            "fit_residual": fit.residual,
                            "amplitude": fit.amplitude}
    return info, trace_nodal_set(diff)
