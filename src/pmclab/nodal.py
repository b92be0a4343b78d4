"""Comparison surfaces, nodal-set tracing, sector counts, and order fits.

The laboratory for second-order contact experiments: closed-form cylinder
and quadratic comparison functions, marching extraction of the zero set of a
difference field, counting of sign sectors on small circles, and estimation
of the leading homogeneous degree of a field near a zero from the growth of
its circular suprema.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import ScalarField
from .errors import InvalidParameterError, OutOfDomainError, UnderflowFitError
from .geometry import submesh

SECTOR_SAMPLES = 720
FIT_RADII = 12
_SIGN_EPS = 1e-12


class CylinderSolution:
    """One-dimensional comparison solution extended constantly in x2.

    X(x1) = h + (1/H)(1 - sqrt(1 - H^2 x1^2)) on |x1 - center| < 1/H; even,
    bounded below by h, nondecreasing for x1 >= 0, and satisfying
    X'' = H (1 + X'^2)^(3/2).  The Hessian at the axis is diag[H, 0], the
    degenerate normal form that true solutions never realize.
    """

    def __init__(self, h_val, H, center=(0.0, 0.0)):
        if not H > 0:
            raise InvalidParameterError(f"H must be positive, got {H}")
        self.h_val = float(h_val)
        self.H = float(H)
        self.center = np.asarray(center, dtype=float)
        self.halfwidth = 1.0 / self.H

    def _xi(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and pts.shape[-1] == 2:
            pts = pts[None, :]
        return pts[..., 0] - self.center[0]

    def domain_mask(self, points):
        return np.abs(self._xi(points)) < self.halfwidth

    def __call__(self, points):
        xi = self._xi(points)
        if np.any(np.abs(xi) >= self.halfwidth):
            raise OutOfDomainError(
                f"cylinder solution undefined at |x1 - {self.center[0]}| >= "
                f"{self.halfwidth}")
        return self.h_val + (1.0 - np.sqrt(1.0 - (self.H * xi) ** 2)) / self.H

    def slope(self, x1):
        xi = np.asarray(x1, dtype=float) - self.center[0]
        if np.any(np.abs(xi) >= self.halfwidth):
            raise OutOfDomainError("slope undefined outside the strip")
        return self.H * xi / np.sqrt(1.0 - (self.H * xi) ** 2)

    def second_derivative(self, x1):
        return self.H * (1.0 + self.slope(x1) ** 2) ** 1.5


def cylinder_solution(h_val, H, center=(0.0, 0.0)):
    """Closed-form cylinder comparison surface (see :class:`CylinderSolution`)."""
    return CylinderSolution(h_val, H, center)


class QuadraticModel:
    """q(x) = u0 + (1/2) l1 (x1-c1)^2 + (1/2) l2 (x2-c2)^2."""

    def __init__(self, u0, l1, l2, center=(0.0, 0.0)):
        self.u0 = float(u0)
        self.l1 = float(l1)
        self.l2 = float(l2)
        self.center = np.asarray(center, dtype=float)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        d = pts - self.center
        return (self.u0 + 0.5 * self.l1 * d[..., 0] ** 2
                + 0.5 * self.l2 * d[..., 1] ** 2)

    def laplacian(self):
        return self.l1 + self.l2

    def hessian(self):
        return np.diag([self.l1, self.l2])


def quadratic_model(u0, l1, l2, center=(0.0, 0.0)):
    return QuadraticModel(u0, l1, l2, center)


def difference_field(field, analytic):
    """Per-vertex difference between a discrete field and an analytic function.

    If the analytic function exposes a ``domain_mask`` and some vertices fall
    outside it, the mesh is clipped to the cells whose vertices all lie
    inside, a warning reports the working subdomain, and the difference is
    returned on the clipped mesh.
    """
    mesh = field.mesh
    mask_fn = getattr(analytic, "domain_mask", None)
    if mask_fn is not None:
        ok = np.asarray(mask_fn(mesh.vertices))
        if not np.all(ok):
            cell_ok = np.all(ok[mesh.cells], axis=1)
            if not np.any(cell_ok):
                raise OutOfDomainError("no mesh cell lies inside the "
                                       "comparison function's domain")
            clipped, remap = submesh(mesh, cell_ok)
            kept = np.nonzero(remap >= 0)[0]
            warnings.warn(
                f"comparison domain clips the mesh: keeping {clipped.n_cells} "
                f"of {mesh.n_cells} cells", stacklevel=2)
            vals = field.values[kept] - np.asarray(analytic(mesh.vertices[kept]))
            return ScalarField(clipped, vals)
    return ScalarField(mesh, field.values - np.asarray(analytic(mesh.vertices)))


@dataclass
class NodalArcSet:
    arcs: list                      # list of (k, 2) polylines
    junction: np.ndarray | None = None


def trace_nodal_set(field):
    """Zero set of a vertex field as chained polylines.

    Marching over cells: every cell whose (perturbed) vertex values change
    sign contributes one segment joining the linear-interpolation zeros on
    its two crossing edges; segments sharing a crossing edge chain into
    polylines.  Exact vertex zeros are nudged by +1e-12 * max|field| so sign
    decisions are determinate.  When three or more chains approach a common
    point, they are split there and the point is reported as a junction.
    """
    mesh = field.mesh
    vals = field.values.copy()
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        raise InvalidParameterError("field is identically zero")
    vals[vals == 0.0] = _SIGN_EPS * scale

    pos = vals > 0
    tri = pos[mesh.cells]
    cells = mesh.cells[~(np.all(tri, axis=1) | np.all(~tri, axis=1))]
    # edges (0, 1), (1, 2), (2, 0) of each crossing cell as (low, high)
    # vertex keys; a sign change crosses exactly two of them
    ends = np.sort(np.stack([cells, np.roll(cells, -1, axis=1)], axis=2),
                   axis=2)
    keys = ends[pos[ends[..., 0]] != pos[ends[..., 1]]]
    a, b = keys[:, 0], keys[:, 1]
    ta = (vals[b] / (vals[b] - vals[a]))[:, None]
    keys = list(map(tuple, keys.tolist()))
    zero_pts = dict(zip(keys, ta * mesh.vertices[a]
                        + (1.0 - ta) * mesh.vertices[b]))
    segments = list(zip(keys[::2], keys[1::2]))

    chains = _chain_segments(segments)
    arcs = [np.array([zero_pts[k] for k in chain]) for chain in chains]
    arcs, junction = _split_at_junction(arcs, 2.0 * mesh.h)
    return NodalArcSet(arcs=arcs, junction=junction)


def sector_count(field, p, r, samples=SECTOR_SAMPLES):
    """Number of sign changes of the field around the circle |x - p| = r.

    Even for fields with isolated zeros on the circle; equals twice the
    number of nodal arcs through p for clean crossings.  Returns 0 when all
    samples share one sign.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    pts = (np.asarray(p, dtype=float)[None, :]
           + r * np.column_stack([np.cos(theta), np.sin(theta)]))
    vals = field.mesh.interpolate(field.values, pts)
    scale = float(np.abs(field.values).max())
    vals = np.where(vals == 0.0, _SIGN_EPS * scale, vals)
    signs = vals > 0
    return int(np.sum(signs != np.roll(signs, -1)))


@dataclass
class LeadingOrderFit:
    k: float                 # estimated homogeneous degree
    r_range: tuple
    residual: float          # rms misfit of the log-log regression
    amplitude: float


def leading_order_fit(field, p, r_min, r_max, n_radii=FIT_RADII,
                      samples=SECTOR_SAMPLES):
    """Slope of log sup_{|x-p|=r} |field| against log r over a radius ladder.

    A homogeneous leading part of degree k gives slope k; the fit residual
    measures contamination by higher-order terms or discretization noise.
    """
    if not (0 < r_min < r_max):
        raise InvalidParameterError("need 0 < r_min < r_max")
    scale = float(np.abs(field.values).max())
    radii = np.geomspace(r_min, r_max, n_radii)
    sups = np.empty(n_radii)
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    p = np.asarray(p, dtype=float)
    for i, r in enumerate(radii):
        vals = field.mesh.interpolate(field.values, p[None, :] + r * ring)
        sups[i] = np.abs(vals).max()
    if sups.max() < 1e3 * np.finfo(float).eps * scale:
        raise UnderflowFitError(
            f"field magnitude {sups.max():.3g} in annulus is at rounding level")
    logs = np.log(sups)
    logr = np.log(radii)
    A = np.column_stack([logr, np.ones(n_radii)])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fitres = float(np.sqrt(np.mean((A @ coef - logs) ** 2)))
    return LeadingOrderFit(k=float(coef[0]), r_range=(float(r_min), float(r_max)),
                           residual=fitres, amplitude=float(np.exp(coef[1])))


# -- internals ----------------------------------------------------------------

def _chain_segments(segments):
    """Chain segments sharing crossing-edge keys into maximal paths/cycles."""
    incident = {}
    for si, (ka, kb) in enumerate(segments):
        incident.setdefault(ka, []).append(si)
        incident.setdefault(kb, []).append(si)

    used = [False] * len(segments)

    def walk(start_key):
        chain = [start_key]
        key = start_key
        while True:
            nxt = [si for si in incident[key] if not used[si]]
            if not nxt:
                return chain
            si = nxt[0]
            used[si] = True
            ka, kb = segments[si]
            key = kb if ka == key else ka
            chain.append(key)

    chains = []
    endpoints = sorted(k for k, inc in incident.items() if len(inc) == 1)
    for key in endpoints:
        if any(not used[si] for si in incident[key]):
            chains.append(walk(key))
    for key in sorted(incident):
        if any(not used[si] for si in incident[key]):
            chains.append(walk(key))
    return chains


def _split_at_junction(arcs, radius):
    """Split arcs at a common close-approach point of >= 3 arcs."""
    if len(arcs) < 3:
        return arcs, None
    mins = []
    for i, a in enumerate(arcs):
        best = (np.inf, 0)
        for j, b in enumerate(arcs):
            if i == j:
                continue
            d = np.linalg.norm(a[:, None, :] - b[None, ::max(1, len(b) // 64), :],
                               axis=2)
            dmin = d.min()
            if dmin < best[0]:
                best = (dmin, int(np.unravel_index(np.argmin(d), d.shape)[0]))
        mins.append(best)
    close = [i for i, (d, _) in enumerate(mins) if d <= radius]
    if len(close) < 3:
        return arcs, None
    approach = np.array([arcs[i][mins[i][1]] for i in close])
    center = approach.mean(axis=0)
    if np.any(np.linalg.norm(approach - center, axis=1) > 2.0 * radius):
        return arcs, None
    out = []
    for i, a in enumerate(arcs):
        if i not in close:
            out.append(a)
            continue
        cut = mins[i][1]
        if cut >= 1:
            out.append(a[:cut + 1])
        if cut <= len(a) - 2:
            out.append(a[cut:])
    return out, center
