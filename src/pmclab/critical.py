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
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import IllConditionedLoopError, InvalidParameterError

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

    def as_dict(self):
        return {
            "location": [float(self.location[0]), float(self.location[1])],
            "grad_norm": float(self.grad_norm),
            "hessian": [[float(self.hessian[0, 0]), float(self.hessian[0, 1])],
                        [float(self.hessian[1, 0]), float(self.hessian[1, 1])]],
            "gauss_curvature": float(self.gauss_curvature),
            "classification": self.classification,
            "index": None if self.index is None else int(self.index),
            "scale": float(self.scale),
        }


def recover_gradient(field):
    """Area-weighted average of adjacent cell gradients at every vertex.

    Exact for globally linear fields; boundary vertices average their
    one-sided cell patch.
    """
    mesh = field.mesh
    return mesh.vertex_average(mesh.cell_gradients(field.values))


def classify(hessian, scale, degeneracy_tol=DEGENERACY_TOL):
    """Eigenvalue-sign classification with a dead band of tol * scale.

    ``scale`` should majorize the natural Hessian magnitude (the callers use
    max(|lambda_1|, |lambda_2|, H)); entries inside the dead band cannot
    certify a sign and the point is reported degenerate.
    """
    h = np.asarray(hessian, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (h + h.T))
    band = degeneracy_tol * scale
    K = float(lam[0] * lam[1])
    if lam[0] > band:
        return "minimum"
    if lam[1] < -band:
        return "maximum"
    if K < -degeneracy_tol * scale ** 2:
        return "saddle"
    return "degenerate"


def fit_quadratic_patch(mesh, values, center, seed_vertex, rings=2):
    """Six-parameter quadratic least-squares fit over a vertex ring patch.

    Returns (gradient at center, symmetric Hessian, fitted value, patch size).
    Coordinates are centered and scaled by h for conditioning.
    """
    indptr, indices = mesh.vertex_neighbors()
    patch = {int(seed_vertex)}
    frontier = {int(seed_vertex)}
    for _ in range(rings):
        nxt = set()
        for v in frontier:
            nxt.update(indices[indptr[v]:indptr[v + 1]].tolist())
        frontier = nxt - patch
        patch |= nxt
    idx = np.array(sorted(patch))
    if idx.size < 6:
        raise InvalidParameterError("patch too small for a quadratic fit")
    h = mesh.h
    X = (mesh.vertices[idx] - np.asarray(center)) / h
    A = np.column_stack([np.ones(idx.size), X[:, 0], X[:, 1],
                         X[:, 0] ** 2, X[:, 0] * X[:, 1], X[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, values[idx], rcond=None)
    grad = np.array([coef[1], coef[2]]) / h
    hess = np.array([[2.0 * coef[3], coef[4]],
                     [coef[4], 2.0 * coef[5]]]) / h ** 2
    return grad, hess, float(coef[0]), idx.size


def find_critical_points(field, spec, degeneracy_tol=DEGENERACY_TOL,
                         grad_tol_rel=GRAD_TOL_REL):
    """Locate and classify the critical points of a converged field.

    An empty result on a converged interior problem, or any degenerate
    classification, contradicts the qualitative theory and is left to the
    verification layer to flag.
    """
    mesh = field.mesh
    g = recover_gradient(field)
    gmax = float(np.linalg.norm(g, axis=1).max())
    if gmax == 0.0:
        return []
    grad_tol = grad_tol_rel * gmax
    h = mesh.h

    cand = _cells_spanning_origin(g[mesh.cells])
    cand_cells = np.nonzero(cand)[0]
    if cand_cells.size == 0:
        return []
    clusters = _cluster_points(mesh.cell_centroids[cand_cells],
                               CLUSTER_RADIUS_FACTOR * h)

    records = []
    gnorm = np.linalg.norm(g, axis=1)
    for members in clusters:
        cells = cand_cells[members]
        verts = np.unique(mesh.cells[cells])
        seed = verts[np.argmin(gnorm[verts])]
        center = mesh.vertices[seed].copy()
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
            seed = _nearest_vertex(mesh, center, seed)
            if norm < 1e-3 * h:
                break
        if mesh.locate(center[None, :])[0] < 0:
            continue  # refinement escaped the mesh: spurious boundary candidate
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm > 10.0 * grad_tol:
            continue
        lam = np.abs(np.linalg.eigvalsh(hess))
        scale = float(max(lam.max(), spec.H))
        cls = classify(hess, scale, degeneracy_tol)
        index = _winding_index_or_none(field, g, center,
                                       WINDING_RADIUS_FACTOR * h, grad_tol)
        records.append(CriticalPointRecord(
            location=center, grad_norm=grad_norm, hessian=hess,
            gauss_curvature=float(np.linalg.det(hess)),
            classification=cls, index=index, scale=scale))

    records = _dedupe(records, CLUSTER_RADIUS_FACTOR * h)
    records.sort(key=lambda r: (r.location[0], r.location[1]))
    return records


def gradient_index(field, loop, grad_tol=None):
    """Winding number of the recovered gradient direction around a loop.

    ``loop`` is a closed polyline (first point not repeated).  Raises
    :class:`IllConditionedLoopError` when the gradient magnitude anywhere on
    the loop falls below ten times the gradient tolerance.
    """
    g = recover_gradient(field)
    if grad_tol is None:
        grad_tol = GRAD_TOL_REL * float(np.linalg.norm(g, axis=1).max())
    return _winding_index(field, g, np.asarray(loop, dtype=float), grad_tol)


def _winding_index(field, gvertex, loop, grad_tol):
    gvals = field.mesh.interpolate(gvertex, loop)
    norms = np.linalg.norm(gvals, axis=1)
    if np.any(norms < 10.0 * grad_tol):
        raise IllConditionedLoopError(
            f"gradient magnitude {norms.min():.3g} on loop below "
            f"{10.0 * grad_tol:.3g}")
    ang = np.arctan2(gvals[:, 1], gvals[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(d.sum()) / (2.0 * np.pi)))


def _winding_index_or_none(field, gvertex, center, radius, grad_tol, n=128):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    loop = center[None, :] + radius * np.column_stack([np.cos(theta),
                                                       np.sin(theta)])
    try:
        if np.any(field.mesh.locate(loop) < 0):
            return None
        return _winding_index(field, gvertex, loop, grad_tol)
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
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return (np.asarray(center, dtype=float)[None, :]
            + radius * np.column_stack([np.cos(theta), np.sin(theta)]))


def inward_offset_loop(domain, offset, n=512):
    """Boundary of the domain offset inward along the outward normal."""
    s = np.linspace(0.0, domain.length, n, endpoint=False)
    return domain.position(s) - offset * domain.normal(s)


# -- internals ----------------------------------------------------------------

def _cells_spanning_origin(gtri, tol=1e-14):
    """True per cell when the convex hull of its 3 vertex gradients covers 0."""
    a, b, c = gtri[:, 0], gtri[:, 1], gtri[:, 2]
    def cross(p, q):
        return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    d1 = cross(b - a, -a)
    d2 = cross(c - b, -b)
    d3 = cross(a - c, -c)
    scale = np.max(np.abs(gtri), axis=(1, 2)) ** 2 + tol
    pos = (d1 >= -tol * scale) & (d2 >= -tol * scale) & (d3 >= -tol * scale)
    neg = (d1 <= tol * scale) & (d2 <= tol * scale) & (d3 <= tol * scale)
    return pos | neg


def _cluster_points(pts, radius):
    """Single-linkage clusters of the points at most ``radius`` apart: lists
    of member indices, ascending, ordered by their smallest member."""
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(len(pts), len(pts)))
    n, labels = connected_components(graph, directed=False)
    return [np.nonzero(labels == k)[0].tolist() for k in range(n)]


def _nearest_vertex(mesh, p, fallback):
    cell = mesh.locate(p[None, :])[0]
    if cell < 0:
        return fallback
    verts = mesh.cells[cell]
    d = np.linalg.norm(mesh.vertices[verts] - p, axis=1)
    return int(verts[np.argmin(d)])


def _dedupe(records, radius):
    kept = []
    for rec in records:
        if all(np.linalg.norm(rec.location - k.location) > radius for k in kept):
            kept.append(rec)
    return kept
