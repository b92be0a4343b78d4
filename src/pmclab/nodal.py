"""The comparison cylinder, nodal-set tracing, sector counts, and order fits.

The laboratory for second-order contact experiments: the closed-form
cylinder solution, marching extraction of level sets (all ten contour
levels in one pass; the zero set of a difference field is the level 0),
counting of sign sectors on small circles, and estimation of the leading
homogeneous degree of a field near a zero from the growth of its circular
suprema.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import ScalarField
from .critical import circle_loop
from .errors import InvalidParameterError, OutOfDomainError, UnderflowFitError
from .geometry import _group_starts, submesh

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


def level_sets(field, levels):
    """Level sets of a vertex field at each of the ascending ``levels``, one
    :class:`NodalArcSet` per level, from one marching pass over the cells.

    A cell crosses a level when its least vertex value lies below it and its
    greatest at or above it.  Only at those (level, cell) pairs are the
    values u - level formed, exact zeros nudged to 1e-12 * max|u - level|,
    and one segment drawn between the linear-interpolation zeros on the
    two edges whose ends change sign.  Segments sharing an edge chain into
    polylines; edges order by level, then (low, high) vertex, and per level
    the open chains come first, by their smaller end edge, then the closed
    ones, by their smallest edge, each walked first along its lower-indexed
    segment.  When three or more chains of a level approach a common point,
    they are split there and the point is that level's junction.
    """
    mesh = field.mesh
    u, levels = field.values, np.asarray(levels, dtype=float)
    reach = np.maximum(u.max() - levels, levels - u.min())
    if not np.all(reach > 0):
        raise InvalidParameterError("field is constant at a traced level")
    cu = u[mesh.cells]
    c0, c1, c2 = cu.T       # numpy is far slower at an axis-1 min of 3
    first = np.searchsorted(levels, np.minimum(np.minimum(c0, c1), c2),
                            side="right")
    count = np.searchsorted(levels, np.maximum(np.maximum(c0, c1), c2),
                            side="right") - first
    cell = np.repeat(np.arange(mesh.n_cells), count)
    lev = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count - first,
                                           count)
    # edges (0, 1), (1, 2), (2, 0) of each crossing pair; a sign change
    # crosses exactly two of them, which make one segment
    d = cu[cell] - levels[lev, None]
    d = np.where(d == 0.0, _SIGN_EPS * reach[lev, None], d)
    a = mesh.cells[cell]
    b, db = a[:, [1, 2, 0]], d[:, [1, 2, 0]]
    cross = (d > 0) != (db > 0)
    lev = np.broadcast_to(lev[:, None], cross.shape)[cross]
    a, b, da, db = a[cross], b[cross], d[cross], db[cross]
    swap = a > b
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    da, db = np.where(swap, db, da), np.where(swap, da, db)

    # slot j is end j % 2 of segment j // 2; its edge's key id is its rank
    # in (level, low, high) order and ``mate`` the other slot on that edge
    n = np.int64(mesh.n_vertices)
    code = (lev * n + a) * n + b
    order = np.argsort(code, kind="stable")
    starts = _group_starts(code[order])
    key = np.empty(len(code), dtype=np.intp)
    key[order] = np.cumsum(starts) - 1
    mate = np.full(len(code), -1)
    twin = np.flatnonzero(~starts[1:])
    mate[order[twin]], mate[order[twin + 1]] = order[twin + 1], order[twin]
    head = order[starts]
    ta = (db / (db - da))[head, None]
    zeros = ta * mesh.vertices[a[head]] + (1.0 - ta) * mesh.vertices[b[head]]
    begin = head[np.argsort(2 * lev[head] + (mate[head] >= 0), kind="stable")]

    arcs = [[] for _ in levels]
    key, mate, used = key.tolist(), mate.tolist(), bytearray(len(code) // 2)
    for j, at in zip(begin.tolist(), lev[begin].tolist()):
        if used[j >> 1]:
            continue
        chain = [key[j]]
        while j >= 0 and not used[j >> 1]:
            used[j >> 1] = 1
            j ^= 1
            chain.append(key[j])
            j = mate[j]
        arcs[at].append(zeros[chain])
    return [NodalArcSet(*_split_at_junction(level_arcs, 2.0 * mesh.h))
            for level_arcs in arcs]


def trace_nodal_set(field):
    """Zero set of a vertex field as chained polylines: :func:`level_sets`
    at the one level 0."""
    return level_sets(field, [0.0])[0]


def sector_count(field, p, r):
    """Number of sign changes of the field at ``SECTOR_SAMPLES`` points
    around the circle |x - p| = r.

    Even for fields with isolated zeros on the circle; equals twice the
    number of nodal arcs through p for clean crossings.  Returns 0 when all
    samples share one sign.
    """
    vals = field.mesh.interpolate(field.values,
                                  circle_loop(p, r, SECTOR_SAMPLES))
    scale = float(np.abs(field.values).max())
    vals = np.where(vals == 0.0, _SIGN_EPS * scale, vals)
    signs = vals > 0
    return int(np.sum(signs != np.roll(signs, -1)))


@dataclass
class LeadingOrderFit:
    k: float                 # estimated homogeneous degree
    residual: float          # rms misfit of the log-log regression
    amplitude: float


def leading_order_fit(field, p, r_min, r_max):
    """Slope of log sup_{|x-p|=r} |field| against log r over a ladder of
    ``FIT_RADII`` radii, each circle sampled at ``SECTOR_SAMPLES`` points.

    A homogeneous leading part of degree k gives slope k; the fit residual
    measures contamination by higher-order terms or discretization noise.
    """
    if not (0 < r_min < r_max):
        raise InvalidParameterError("need 0 < r_min < r_max")
    scale = float(np.abs(field.values).max())
    radii = np.geomspace(r_min, r_max, FIT_RADII)
    circles = np.concatenate([circle_loop(p, r, SECTOR_SAMPLES) for r in radii])
    sups = np.abs(field.mesh.interpolate(field.values, circles)).reshape(
        FIT_RADII, SECTOR_SAMPLES).max(axis=1)
    if sups.max() < 1e3 * np.finfo(float).eps * scale:
        raise UnderflowFitError(
            f"field magnitude {sups.max():.3g} in annulus is at rounding level")
    logs = np.log(sups)
    logr = np.log(radii)
    A = np.column_stack([logr, np.ones(FIT_RADII)])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fitres = float(np.sqrt(np.mean((A @ coef - logs) ** 2)))
    return LeadingOrderFit(k=float(coef[0]), residual=fitres,
                           amplitude=float(np.exp(coef[1])))


# -- internals ----------------------------------------------------------------

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
