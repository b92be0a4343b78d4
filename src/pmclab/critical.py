"""Location, classification, and counting of critical points of a solution.

Candidate cells are those whose three vertex-recovered gradients span the
origin; candidates merge into clusters, each refined by Newton steps on a
local quadratic least-squares fit of the field over a two-ring vertex patch.
Classification uses the fitted Hessian eigenvalues with a scale-aware
dead band, and every record carries the winding index of the gradient on a
small surrounding loop, computed rather than inferred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedLoopError, InvalidParameterError
from .geometry import _BucketGrid

GRAD_TOL_REL = 1e-3          # relative to the max recovered gradient magnitude
DEGENERACY_TOL = 1e-2        # dead band for eigenvalue sign decisions
CLUSTER_RADIUS_FACTOR = 2.0  # in units of mesh h
WINDING_RADIUS_FACTOR = 3.0


@dataclass
class CriticalPointRecord:
    location: np.ndarray
    grad_norm: float
    hessian: np.ndarray
    gauss_curvature: float
    classification: str
    index: int | None
    scale: float


def recover_gradient(field):
    """Area-weighted average of adjacent cell gradients at every vertex.

    Exact for globally linear fields; boundary vertices average their
    one-sided cell patch.
    """
    mesh = field.mesh
    return mesh.vertex_average(mesh.cell_gradients(field.values))


def classify(hessian, scale):
    """Eigenvalue-sign classification with a dead band of
    ``DEGENERACY_TOL * scale``.

    ``scale`` should majorize the natural Hessian magnitude (the callers use
    max(|lambda_1|, |lambda_2|, H)); entries inside the dead band cannot
    certify a sign and the point is reported degenerate.
    """
    h = np.asarray(hessian, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (h + h.T))
    band = DEGENERACY_TOL * scale
    K = float(lam[0] * lam[1])
    if lam[0] > band:
        return "minimum"
    if lam[1] < -band:
        return "maximum"
    if K < -DEGENERACY_TOL * scale ** 2:
        return "saddle"
    return "degenerate"


def fit_quadratic_patch(mesh, values, center, seed_vertex):
    """Six-parameter quadratic least-squares fit over the two-ring vertex
    patch of ``seed_vertex``.

    Returns (gradient at center, symmetric Hessian, fitted value, patch size).
    Coordinates are centered and scaled by h for conditioning.
    """
    indptr, indices = mesh.vertex_neighbors()
    patch = {int(seed_vertex)}
    frontier = {int(seed_vertex)}
    for _ in range(2):
        nxt = set()
        for v in frontier:
            nxt.update(indices[indptr[v]:indptr[v + 1]].tolist())
        frontier = nxt - patch
        patch |= nxt
    idx = np.array(sorted(patch))
    if idx.size < 6:
        raise InvalidParameterError("patch too small for a quadratic fit")
    h = mesh.h
    coef = _quadratic_coefficients(mesh.vertices[idx], values[idx], center, h)
    grad = np.array([coef[1], coef[2]]) / h
    hess = np.array([[2.0 * coef[3], coef[4]],
                     [coef[4], 2.0 * coef[5]]]) / h ** 2
    return grad, hess, float(coef[0]), idx.size


def _quadratic_coefficients(points, values, center, h):
    """Least-squares coefficients of c0 + c1 x + c2 y + c3 x^2 + c4 x y
    + c5 y^2 through ``values`` at ``points``, in the coordinates
    (points - center) / h."""
    X = (points - np.asarray(center)) / h
    A = np.column_stack([np.ones(len(X)), X[:, 0], X[:, 1],
                         X[:, 0] ** 2, X[:, 0] * X[:, 1], X[:, 1] ** 2])
    return np.linalg.lstsq(A, values, rcond=None)[0]


def find_critical_points(field, spec):
    """Locate and classify the critical points of a converged field.

    An empty result on a converged interior problem, or any degenerate
    classification, contradicts the qualitative theory and is left to the
    verification layer to flag.
    """
    mesh = field.mesh
    g = recover_gradient(field)
    gnorm = np.linalg.norm(g, axis=1)
    gmax = float(gnorm.max())
    if gmax == 0.0:
        return []
    grad_tol = GRAD_TOL_REL * gmax
    h = mesh.h

    cand = _cells_spanning_origin(g, mesh.cells)
    cand_cells = np.nonzero(cand)[0]
    if cand_cells.size == 0:
        return []
    clusters = _cluster_points(mesh.cell_centroids[cand_cells],
                               CLUSTER_RADIUS_FACTOR * h)

    records = []
    for members in clusters:
        cells = cand_cells[members]
        verts = np.unique(mesh.cells[cells])
        seed = verts[np.argmin(gnorm[verts])]
        center = mesh.vertices[seed].copy()
        cell = 0  # a vertex lies in the mesh
        grad = hess = None
        for _ in range(3):
            grad, hess, _, _ = fit_quadratic_patch(mesh, field.values, center,
                                                   seed)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            norm = np.linalg.norm(step)
            if norm > 2.0 * h:
                step *= 2.0 * h / norm
            center = center + step
            cell = mesh.locate(center[None, :])[0]
            if cell >= 0:
                verts = mesh.cells[cell]
                seed = int(verts[np.argmin(np.linalg.norm(
                    mesh.vertices[verts] - center, axis=1))])
            if norm < 1e-3 * h:
                break
        if cell < 0:
            continue  # refinement escaped the mesh: spurious boundary candidate
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm > 10.0 * grad_tol:
            continue
        lam = np.abs(np.linalg.eigvalsh(hess))
        scale = float(max(lam.max(), spec.H))
        cls = classify(hess, scale)
        index = _winding_index_or_none(field, g, center,
                                       WINDING_RADIUS_FACTOR * h, grad_tol)
        records.append(CriticalPointRecord(
            location=center, grad_norm=grad_norm, hessian=hess,
            gauss_curvature=float(np.linalg.det(hess)),
            classification=cls, index=index, scale=scale))

    records = _dedupe(records, CLUSTER_RADIUS_FACTOR * h)
    records.sort(key=lambda r: (r.location[0], r.location[1]))
    return records


def gradient_index(field, loop):
    """Winding number of the recovered gradient direction around a loop.

    ``loop`` is a closed polyline (first point not repeated).  Raises
    :class:`IllConditionedLoopError` when the loop leaves the mesh or the
    gradient magnitude anywhere on it falls below ten times the gradient
    tolerance.
    """
    g = recover_gradient(field)
    grad_tol = GRAD_TOL_REL * float(np.linalg.norm(g, axis=1).max())
    return _winding_index(field, g, np.asarray(loop, dtype=float), grad_tol)


def _winding_index(field, gvertex, loop, grad_tol):
    try:
        gvals = field.mesh.interpolate(gvertex, loop)
    except InvalidParameterError:
        raise IllConditionedLoopError("the loop leaves the mesh") from None
    norms = np.linalg.norm(gvals, axis=1)
    if np.any(norms < 10.0 * grad_tol):
        raise IllConditionedLoopError(
            f"gradient magnitude {norms.min():.3g} on loop below "
            f"{10.0 * grad_tol:.3g}")
    ang = np.arctan2(gvals[:, 1], gvals[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(d.sum()) / (2.0 * np.pi)))


def _winding_index_or_none(field, gvertex, center, radius, grad_tol):
    try:
        return _winding_index(field, gvertex, circle_loop(center, radius, 128),
                              grad_tol)
    except IllConditionedLoopError:
        return None


def interior_max_scan(field):
    """Interior vertices strictly greater than every mesh neighbor.

    Strict comparison by design: plateaus are not maxima, so constant fields
    return an empty list.
    """
    mesh = field.mesh
    indptr, indices = mesh.vertex_neighbors()
    has_nb = indptr[1:] > indptr[:-1]
    nb_max = np.full(mesh.n_vertices, np.inf)
    # empty neighbor ranges are dropped, so each reduceat segment is one
    # vertex's neighbor range
    nb_max[has_nb] = np.maximum.reduceat(field.values[indices],
                                         indptr[:-1][has_nb])
    return np.nonzero((field.values > nb_max)
                      & ~mesh.is_boundary_vertex)[0].tolist()


def circle_loop(center, radius, n=256):
    """``n`` equally spaced points on the circle |x - center| = radius,
    counter-clockwise from angle 0."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return (np.asarray(center, dtype=float)[None, :]
            + radius * np.column_stack([np.cos(theta), np.sin(theta)]))


def inward_offset_loop(domain, offset):
    """Boundary of the domain offset inward along the outward normal, at
    512 equally spaced arc lengths."""
    s = np.linspace(0.0, domain.length, 512, endpoint=False)
    return domain.position(s) - offset * domain.normal(s)


# -- internals ----------------------------------------------------------------

def _cells_spanning_origin(gvertex, cells):
    """True per cell when the convex hull of the vertex gradients ``gvertex``
    (N, 2) at its 3 corners covers 0, up to 1e-14 relative to the squared
    largest corner component.  Each corner component is one (M,) array."""
    gx, gy = np.ascontiguousarray(gvertex.T)
    ax, bx, cx = (gx[k] for k in cells.T)
    ay, by, cy = (gy[k] for k in cells.T)
    # the cross product of each hull edge with the corner-to-origin vector
    d1 = (bx - ax) * -ay - (by - ay) * -ax
    d2 = (cx - bx) * -by - (cy - by) * -bx
    d3 = (ax - cx) * -cy - (ay - cy) * -cx
    big = np.abs(ax)
    for comp in (ay, bx, by, cx, cy):
        np.maximum(big, np.abs(comp), out=big)
    tol = 1e-14 * (big ** 2 + 1e-14)
    pos = (d1 >= -tol) & (d2 >= -tol) & (d3 >= -tol)
    neg = (d1 <= tol) & (d2 <= tol) & (d3 <= tol)
    return pos | neg


def _cluster_points(pts, radius):
    """Single-linkage clusters of the points at most ``radius`` apart: lists
    of member indices, ascending, ordered by their smallest member."""
    # union-find, each root the smallest member of its cluster
    parent = list(range(len(pts)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    first, second = _BucketGrid(pts, radius).pairs(pts, radius)
    diff = pts[first] - pts[second]
    dist2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
    near = (first < second) & (dist2 <= radius * radius)
    for i, j in zip(first[near].tolist(), second[near].tolist()):
        ri, rj = root(i), root(j)
        parent[max(ri, rj)] = min(ri, rj)
    clusters = {}
    for i in range(len(pts)):
        clusters.setdefault(root(i), []).append(i)
    return list(clusters.values())


def _dedupe(records, radius):
    kept = []
    for rec in records:
        if all(np.linalg.norm(rec.location - k.location) > radius for k in kept):
            kept.append(rec)
    return kept
