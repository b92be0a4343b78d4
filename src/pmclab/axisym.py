"""Axisymmetric case in dimension n >= 3 via the meridian half cross-section.

A domain of revolution about the last coordinate axis reduces the problem to
the (r, z) half plane with measure weight r^(n-2).  The meridian section is
a planar :class:`~pmclab.geometry.ConvexDomain` that is its own mirror image
in the axis x1 = 0 (the ball a disk, the spheroid an ellipse); the mesh is
its r >= 0 half, meshed from its exact boundary and its own lattice.  The
weight vanishes on the axis, which enforces the symmetry condition
v_r(0, z) = 0 naturally (the singular (n-2)/r coefficient of the strong form
is never evaluated).  The meridian problem is solved by the planar Newton
solver on a :class:`~pmclab.assembly.Discretization` with weight exponent
n - 2, whose boundary terms run over every boundary edge: the axis chain is
pinned to r = 0, so the weight is exactly zero at the Gauss points of its
edges and they add nothing, while the outer boundary carries the same
conormal flux as the planar case.  The weight is the only axis condition;
for n = 2 it is one, and the system is the planar one on the half section.
Besides the mesh, the module measures the solved field's axis diagnostics:
radial monotonicity, the axis critical points and the axis Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import _quadratic_coefficients, recover_gradient
from .errors import InvalidParameterError, NoAxisCriticalError
from .geometry import (_BOUNDARY_SPACING_FACTOR, _LATTICE_SPACING_FACTOR,
                       _hex_lattice, mesh_from_loop)

_AXIS_TOL = 1e-12
_MIRROR_TOL = 1e-9          # relative to the boundary length


def _axis_crossing(domain):
    """Arc length at which the boundary of ``domain`` crosses the axis
    x1 = 0 upwards: the lower end of its right half, which runs for half
    the length.  Raises :class:`InvalidParameterError` unless the boundary
    is its own mirror image in the axis, to 1e-9 of its length."""
    L = domain.length
    s = np.linspace(0.0, L, len(domain._table_pts), endpoint=False)
    x = domain._table_pts[:, 0]
    k = np.flatnonzero((x <= 0.0) & (np.roll(x, -1) > 0.0))
    if len(k) != 1:
        raise InvalidParameterError("profile must cross the axis x1 = 0")
    lo, hi = s[k[0]], s[k[0]] + L / len(s)
    while lo < (mid := 0.5 * (lo + hi)) < hi:      # bisection to one ulp
        lo, hi = (mid, hi) if domain.position(mid)[0] <= 0.0 else (lo, mid)
    right, left = domain.position(lo + s), domain.position(lo - s)
    if np.abs(right - left * [-1.0, 1.0]).max() > _MIRROR_TOL * L:
        raise InvalidParameterError(
            "profile is not mirror-symmetric about the axis x1 = 0")
    return lo


def meridian_mesh(domain, h_target):
    """Triangulate the r >= 0 half of a domain symmetric about the axis,
    with an explicit axis vertex chain.

    The boundary loop runs counterclockwise: the right boundary half by arc
    length from its lower axis crossing to its upper one, both pinned to
    r = 0, then straight down the axis.  The fill is the domain's lattice
    from r = 0, clipped to r >= its clearance.
    """
    s0 = _axis_crossing(domain)
    half = 0.5 * domain.length
    z_lo, z_hi = domain.position(np.array([s0, s0 + half]))[:, 1]
    if not (0 < h_target < (half + z_hi - z_lo) / 8.0):
        raise InvalidParameterError(
            f"h_target must lie in (0, L/8), got {h_target}")

    n_arc = max(4, int(math.ceil(half / (_BOUNDARY_SPACING_FACTOR * h_target))))
    arc_pts = domain.position(s0 + np.linspace(0.0, half, n_arc + 1))
    arc_pts[0], arc_pts[-1] = (0.0, z_lo), (0.0, z_hi)   # pinned to the axis
    n_ax = max(2, int(math.ceil((z_hi - z_lo)
                                / (_BOUNDARY_SPACING_FACTOR * h_target))))
    z_ax = np.linspace(z_hi, z_lo, n_ax + 1)[1:-1]
    loop = np.vstack([arc_pts, np.column_stack([np.zeros(len(z_ax)), z_ax])])
    return mesh_from_loop(loop, *_hex_lattice(
        domain, _LATTICE_SPACING_FACTOR * h_target, x_min=0.0))


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
    quadratic fit of the reflected (r -> -r) vertex patch within max(4h,
    0.3 b) of the critical point, b half the length of the axis chain; the
    axial entry is the fitted v_zz.  The FE error is O(h^2) in value but
    rough at the mesh scale, so a patch of radius 4h alone would turn it
    into a Hessian error that does not shrink under refinement.  Cross terms
    are reported as fit residuals and should vanish by symmetry.
    """
    mesh = field.mesh
    crossings = find_axis_critical(field)
    if len(crossings) != 1:
        raise NoAxisCriticalError(
            f"expected exactly one axis critical point, found {len(crossings)}")
    center = np.array([0.0, crossings[0]])

    z_axis = mesh.vertices[axis_vertices(mesh), 1]
    radius = max(4.0 * mesh.h, 0.15 * (z_axis[-1] - z_axis[0]))
    d = np.linalg.norm(mesh.vertices - center, axis=1)
    idx = np.nonzero(d <= radius)[0]
    if idx.size < 6:
        idx = np.argsort(d)[:12]
    pts, vals = mesh.vertices[idx], field.values[idx]
    off_axis = pts[:, 0] > _AXIS_TOL
    pts = np.vstack([pts, pts[off_axis] * np.array([-1.0, 1.0])])
    vals = np.concatenate([vals, vals[off_axis]])

    h = mesh.h
    coef = _quadratic_coefficients(pts, vals, center, h)
    v_rr, v_zz = 2.0 * coef[3] / h ** 2, 2.0 * coef[5] / h ** 2
    return AxisHessian(location=center,
                       entries=np.array([v_rr] * (n_dim - 1) + [v_zz]),
                       cross_term=float(coef[4] / h ** 2),
                       grad_residual=float(np.hypot(coef[1], coef[2]) / h))

