"""Axisymmetric case in dimension n >= 3 via the meridian half cross-section.

A domain of revolution about the last coordinate axis reduces the problem to
the (r, z) half plane with measure weight r^(n-2).  The weight vanishes on
the axis, which enforces the symmetry condition v_r(0, z) = 0 naturally (the
singular (n-2)/r coefficient of the strong form is never evaluated); the
outer boundary carries the same conormal flux machinery as the planar case.
The meridian problem is solved by the planar Newton solver on a
:class:`~pmclab.assembly.Discretization` with weight exponent n - 2 and flux
on the :func:`outer_flux_edges` only; for n = 2 the weight is one and the
system is the planar one restricted to those edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .critical import _quadratic_coefficients, recover_gradient
from .errors import InvalidParameterError, NoAxisCriticalError
from .geometry import (_BOUNDARY_SPACING_FACTOR, _INTERIOR_CLEARANCE,
                       _LATTICE_SPACING_FACTOR, mesh_from_loop)

_AXIS_TOL = 1e-12


@dataclass(frozen=True)
class MeridianProblem:
    """Half cross-section problem for a domain of revolution.

    The profile is the r >= 0 half of an ellipse with equatorial semi-axis
    ``a`` (r direction) and polar semi-axis ``b`` (z direction); ``a == b``
    is the ball.  The profile meets the axis orthogonally at (0, -b) and
    (0, b), so the revolved domain is smooth.  The dimension n and the
    boundary data belong to the :class:`~pmclab.assembly.ProblemSpec`.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise InvalidParameterError("profile semi-axes must be positive")


def meridian_mesh(problem, h_target):
    """Triangulate the half cross-section with an explicit axis vertex chain.

    The boundary loop runs counterclockwise: outer arc from (0, -b) through
    (a, 0) to (0, b), then straight down the axis.
    """
    a, b = problem.a, problem.b
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 4096)
    speed = np.sqrt((a * np.sin(theta)) ** 2 + (b * np.cos(theta)) ** 2)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1])
                                         * np.diff(theta))])
    arc_len = float(s[-1])
    if not (0 < h_target < (arc_len + 2 * b) / 8.0):
        raise InvalidParameterError(
            f"h_target must lie in (0, L/8), got {h_target}")

    n_arc = max(4, int(math.ceil(arc_len / (_BOUNDARY_SPACING_FACTOR * h_target))))
    th = np.interp(np.linspace(0.0, arc_len, n_arc + 1), s, theta)
    arc_pts = np.column_stack([a * np.cos(th), b * np.sin(th)])
    arc_pts[0] = (0.0, -b)          # pin the axis endpoints exactly
    arc_pts[-1] = (0.0, b)

    n_ax = max(2, int(math.ceil(2.0 * b / (_BOUNDARY_SPACING_FACTOR * h_target))))
    z_ax = np.linspace(b, -b, n_ax + 1)[1:-1]
    axis_pts = np.column_stack([np.zeros(len(z_ax)), z_ax])

    loop = np.vstack([arc_pts[:-1], arc_pts[-1:], axis_pts])
    return mesh_from_loop(loop, *_half_lattice(
        a, b, _LATTICE_SPACING_FACTOR * h_target, loop))


def _half_lattice(a, b, h, loop):
    """Hexagonal lattice points, row by row, inside the half ellipse and at
    least ``_INTERIOR_CLEARANCE * h`` from the boundary loop (densified to
    quarter-edge points), with their integer (row, column), the column
    counted in half spacings."""
    dy = h * math.sqrt(3.0) / 2.0
    j = np.arange(int(math.floor(2.0 * b / dy)) + 2)
    i = np.arange(int(math.floor(a / h)) + 2)
    rs = np.where(j % 2, 0.5 * h, h)[:, None] + h * i
    zs = np.broadcast_to((-b + j * dy)[:, None], rs.shape)
    cand = np.stack([rs, zs], axis=-1).reshape(-1, 2)
    col = 2 * i + np.where(j % 2, 1, 2)[:, None]
    ij = np.stack(np.broadcast_arrays(j[:, None], col), -1).reshape(-1, 2)
    keep = ((cand[:, 0] / a) ** 2 + (cand[:, 1] / b) ** 2 < 1.0) \
        & (cand[:, 0] > 0)
    cand, ij = cand[keep], ij[keep]
    closed = np.vstack([loop, loop[:1]])
    dense = np.vstack([closed[:-1] + (k / 4) * (closed[1:] - closed[:-1])
                       for k in range(4)])
    clearance = _INTERIOR_CLEARANCE * h
    # samples farther than the clearance read as inf
    d, _ = cKDTree(dense).query(cand, distance_upper_bound=clearance)
    return cand[d >= clearance], ij[d >= clearance]


def outer_flux_edges(mesh):
    """Boundary edges on the revolved surface (both endpoints off the axis
    or crossing it); axis edges carry no flux."""
    be = mesh.boundary_edges
    r = mesh.vertices[:, 0]
    on_axis = (np.abs(r[be[:, 0]]) < _AXIS_TOL) & (np.abs(r[be[:, 1]]) < _AXIS_TOL)
    return np.nonzero(~on_axis)[0]


def axis_vertices(mesh):
    """Axis chain vertex indices sorted by z."""
    idx = np.nonzero(np.abs(mesh.vertices[:, 0]) < _AXIS_TOL)[0]
    return idx[np.argsort(mesh.vertices[idx, 1])]


@dataclass
class MonotoneReport:
    holds: bool
    min_value: float
    location: np.ndarray
    tol: float
    marginal: bool


def check_monotone(field):
    """Radial monotonicity check: dv/dr > -tol at all vertices with r > 2h,
    tol = 1e-8 max(1, max |grad v|).

    A minimum sitting exactly at zero (an r-independent field) is reported
    as marginal, not failed.
    """
    mesh = field.mesh
    g = recover_gradient(field)
    tol = 1e-8 * max(1.0, float(np.linalg.norm(g, axis=1).max()))
    sel = np.nonzero(mesh.vertices[:, 0] > 2.0 * mesh.h)[0]
    if sel.size == 0:
        return MonotoneReport(True, 0.0, np.zeros(2), tol, True)
    dvdr = g[sel, 0]
    k = int(np.argmin(dvdr))
    mn = float(dvdr[k])
    return MonotoneReport(holds=bool(mn >= -tol), min_value=mn,
                          location=mesh.vertices[sel[k]].copy(), tol=tol,
                          marginal=bool(mn < tol))


def find_axis_critical(field):
    """Critical points of the revolved solution along the axis.

    On the axis v_r vanishes by symmetry, so critical points are the zeros
    of dv/dz along the axis chain.  Each sign change of the recovered dv/dz
    is located by linear interpolation between the two axis vertices that
    bracket it (a vertex where dv/dz is exactly zero is taken as is); a
    crossing within 2h of the previous one kept is dropped.
    """
    mesh = field.mesh
    chain = axis_vertices(mesh)
    if chain.size < 3:
        raise InvalidParameterError("mesh has no axis vertex chain")
    z = mesh.vertices[chain, 1]
    gz = recover_gradient(field)[chain, 1]
    crossings = []
    for i in range(len(chain) - 1):
        if gz[i] == 0.0:
            crossings.append(float(z[i]))
        elif gz[i] * gz[i + 1] < 0.0:
            tau = gz[i] / (gz[i] - gz[i + 1])
            crossings.append(float(z[i] + tau * (z[i + 1] - z[i])))
    merged = []
    for zc in crossings:
        if not merged or abs(zc - merged[-1]) > 2.0 * mesh.h:
            merged.append(zc)
    return merged


@dataclass
class AxisHessian:
    location: np.ndarray
    entries: np.ndarray          # diagonal of D^2 u at the critical point
    cross_term: float            # fitted v_rz, expected 0 by symmetry
    grad_residual: float


def axis_hessian(field, n_dim):
    """Diagonal Hessian of the revolved solution at its axis critical point.

    The n-1 transverse entries all equal v_rr(0, z*), estimated from a
    quadratic fit of the reflected (r -> -r) vertex patch within 4h of the
    critical point; the axial entry is the fitted v_zz.  Cross terms are
    reported as fit residuals and should vanish by symmetry.
    """
    mesh = field.mesh
    crossings = find_axis_critical(field)
    if len(crossings) != 1:
        raise NoAxisCriticalError(
            f"expected exactly one axis critical point, found {len(crossings)}")
    z_star = crossings[0]
    center = np.array([0.0, z_star])

    d = np.linalg.norm(mesh.vertices - center, axis=1)
    idx = np.nonzero(d <= 4.0 * mesh.h)[0]
    if idx.size < 6:
        idx = np.argsort(d)[:12]
    pts = mesh.vertices[idx]
    vals = field.values[idx]
    off_axis = pts[:, 0] > _AXIS_TOL
    pts = np.vstack([pts, pts[off_axis] * np.array([-1.0, 1.0])])
    vals = np.concatenate([vals, vals[off_axis]])

    h = mesh.h
    coef = _quadratic_coefficients(pts, vals, center, h)
    v_rr = 2.0 * coef[3] / h ** 2
    v_zz = 2.0 * coef[5] / h ** 2
    v_rz = coef[4] / h ** 2
    grad_res = float(np.hypot(coef[1], coef[2]) / h)
    entries = np.array([v_rr] * (n_dim - 1) + [v_zz])
    return AxisHessian(location=center, entries=entries,
                       cross_term=float(v_rz), grad_residual=grad_res)


def revolved_volume(disc):
    """Discrete volume of the revolved domain from the weighted cell measure.

    Multiplies the r^(n-2)-weighted half-section area of the meridian
    :class:`~pmclab.assembly.Discretization` (``disc.volume``, n - 2 its
    weight exponent) by the surface measure of the unit (n-2)-sphere; for
    n = 3 that factor is 2 pi and the ball of radius R yields 4 pi R^3 / 3
    up to O(h^2).
    """
    k = disc.weight_exponent + 1
    return float(2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0) * disc.volume)
