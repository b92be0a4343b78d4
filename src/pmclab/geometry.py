"""Smooth bounded convex planar domains and quality triangulations of them.

Domains are represented by a dense arc-length table (positions, outward
normals, curvature).  Positions and tangents between the knots come from a
periodic cubic spline whose knot second derivatives solve one cyclic
tridiagonal system (sparse LU), so conics and rounded polygons get uniform
treatment.  Meshes are produced by Delaunay triangulation of a boundary
sampling plus a hexagonal interior lattice, filtered by one nearest-sample
query against the boundary table, followed by Laplacian smoothing passes
until the minimum cell angle reaches 20 degrees.  Everything here is a pure
function of its inputs: two calls with identical arguments return identical
vertex and cell arrays.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay, cKDTree

from .errors import InvalidParameterError, MeshQualityError

_TABLE_SIZE = 2048
_FINE_GRID = 16384
# boundary sampling denser than h_target so polygonal area/length deficits
# stay well inside the O(h^2) budget; lattice slightly denser still so the
# longest edge stays within 1.5 h_target after smoothing
_BOUNDARY_SPACING_FACTOR = 0.85
_LATTICE_SPACING_FACTOR = 0.9
_INTERIOR_CLEARANCE = 0.5
_MIN_ANGLE_DEG = 20.0


class ConvexDomain:
    """Closed strictly convex planar region with an arc-length boundary table.

    ``position``, ``tangent`` and ``normal`` evaluate a periodic C^2 cubic
    spline through the table (see :class:`_PeriodicCubic`); ``curvature`` is
    linear interpolation of the tabulated values.  ``contains`` and the mesh
    lattice query a KD-tree over the table samples.

    Parameters
    ----------
    points : (K, 2) array
        Boundary samples at the arc-length knots, counterclockwise, not
        including the closing duplicate of the first point.
    arclengths : (K,) array
        Arc-length parameter of each sample; ``arclengths[0] == 0``.
    length : float
        Total boundary length.
    curvature : (K,) array
        Signed curvature at each sample (positive for convex).
    area : float
        Enclosed area (analytic where available).
    smooth : bool
        False for merely C^{1,1} boundaries (rounded polygons); smoothness
        checks downgrade to warnings on such domains.
    """

    def __init__(self, points, arclengths, length, curvature, area, smooth=True,
                 label="convex-domain"):
        self.label = label
        self.length = float(length)
        self.area = float(area)
        self.smooth = bool(smooth)
        pts = np.asarray(points, dtype=float)
        s = np.asarray(arclengths, dtype=float)
        self._table_s = np.concatenate([s, [self.length]])
        self._table_pts = np.vstack([pts, pts[:1]])
        self._table_kappa = np.concatenate([np.asarray(curvature, float),
                                            [curvature[0]]])
        self._spline = _PeriodicCubic(self._table_s, self._table_pts)
        x, y = self._table_pts[:, 0], self._table_pts[:, 1]
        cross = x[:-1] * y[1:] - x[1:] * y[:-1]
        poly_area = 0.5 * np.sum(cross)
        cx = np.sum((x[:-1] + x[1:]) * cross) / (6.0 * poly_area)
        cy = np.sum((y[:-1] + y[1:]) * cross) / (6.0 * poly_area)
        self.centroid = np.array([cx, cy])
        if poly_area <= 0:
            raise InvalidParameterError("boundary table must be counterclockwise")

    @property
    def diameter(self):
        pts = self._table_pts
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def position(self, s):
        return self._spline(np.mod(s, self.length))

    def tangent(self, s):
        d = self._spline(np.mod(s, self.length), derivative=True)
        return d / np.linalg.norm(d, axis=-1, keepdims=True)

    def normal(self, s):
        """Outward unit normal: the unit tangent rotated by -90 degrees."""
        t = self.tangent(s)
        return np.stack([t[..., 1], -t[..., 0]], axis=-1)

    def curvature(self, s):
        return np.interp(np.mod(s, self.length), self._table_s, self._table_kappa)

    def contains(self, p):
        """Strict interior test by the outward normal of the nearest sample.

        ``p`` is inside when it lies strictly on the inner side of the
        tangent line at its nearest boundary table sample.  On a convex
        boundary this agrees with the intersection of all sampled tangent
        half-planes except for outside points closer to the boundary than
        the chord sag kappa * ds^2 / 8 (ds the table spacing; about 1e-6 R
        on a 2048-sample disk of radius R), which both tests may call inside.
        """
        side, _ = self._side_and_distance(p)
        return np.asarray(side < 0.0)

    def _side_and_distance(self, p):
        """Offset of ``p`` along the nearest sample's outward normal, and
        the distance to that sample; both of shape ``p.shape[:-1]``."""
        p = np.asarray(p, dtype=float)
        d, k = self._boundary_tree().query(p)
        side = np.einsum("...i,...i->...", p - self._table_pts[k],
                         self._normals_table()[k])
        return side, d

    def _normals_table(self):
        if not hasattr(self, "_cached_normals"):
            self._cached_normals = self.normal(self._table_s[:-1])
        return self._cached_normals

    def _boundary_tree(self):
        if not hasattr(self, "_cached_tree"):
            self._cached_tree = cKDTree(self._table_pts[:-1])
        return self._cached_tree


class _PeriodicCubic:
    """Periodic C^2 cubic spline through closed knot data (``y[0] == y[-1]``).

    The knot second derivatives M solve the cyclic tridiagonal system

        h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
            = 6 (slope[i] - slope[i-1]),

    with h the knot spacings and slope the chord slopes, by one sparse LU.
    Interval i then carries y[i] + b u + c u^2 + d u^3 in u = x - x[i],
    evaluated by Horner's rule; values are vectors along the last axis.
    """

    def __init__(self, x, y):
        self._x = x
        h = np.diff(x)
        slope = np.diff(y, axis=0) / h[:, None]
        n = len(h)
        i = np.arange(n)
        h_prev = np.roll(h, 1)
        lhs = sp.csc_matrix(
            (np.concatenate([2.0 * (h_prev + h), h_prev, h]),
             (np.tile(i, 3), np.concatenate([i, (i - 1) % n, (i + 1) % n]))),
            shape=(n, n))
        m = spla.splu(lhs).solve(6.0 * (slope - np.roll(slope, 1, axis=0)))
        m_next = np.roll(m, -1, axis=0)
        h = h[:, None]
        self._coef = (y[:-1], slope - h * (2.0 * m + m_next) / 6.0, 0.5 * m,
                      (m_next - m) / (6.0 * h))

    def __call__(self, x, derivative=False):
        """Spline value (or first derivative) at ``x`` in [x[0], x[-1]]."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self._x, x, side="right") - 1,
                    0, len(self._x) - 2)
        u = (x - self._x[i])[..., None]
        y, b, c, d = (coef[i] for coef in self._coef)
        if derivative:
            return b + u * (2.0 * c + u * (3.0 * d))
        return y + u * (b + u * (c + u * d))


def make_disk(R):
    """Disk of radius ``R`` centered at the origin."""
    if not R > 0:
        raise InvalidParameterError(f"disk radius must be positive, got {R}")
    L = 2.0 * math.pi * R
    s = np.linspace(0.0, L, _TABLE_SIZE, endpoint=False)
    theta = s / R
    pts = np.column_stack([R * np.cos(theta), R * np.sin(theta)])
    kappa = np.full(_TABLE_SIZE, 1.0 / R)
    return ConvexDomain(pts, s, L, kappa, math.pi * R * R, smooth=True,
                        label=f"disk(R={R})")


def make_ellipse(a, b):
    """Ellipse with semi-axes ``a`` (x1) and ``b`` (x2), arc-length parametrized."""
    if not (a > 0 and b > 0):
        raise InvalidParameterError(f"ellipse axes must be positive, got {a}, {b}")
    theta = np.linspace(0.0, 2.0 * math.pi, _FINE_GRID + 1)
    speed = np.sqrt((a * np.sin(theta)) ** 2 + (b * np.cos(theta)) ** 2)
    # periodic trapezoid rule converges spectrally for the perimeter
    ds = np.diff(theta)
    s_of_theta = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * ds)])
    L = float(s_of_theta[-1])
    s = np.linspace(0.0, L, _TABLE_SIZE, endpoint=False)
    th = np.interp(s, s_of_theta, theta)
    pts = np.column_stack([a * np.cos(th), b * np.sin(th)])
    kappa = a * b / ((a * np.sin(th)) ** 2 + (b * np.cos(th)) ** 2) ** 1.5
    return ConvexDomain(pts, s, L, kappa, math.pi * a * b, smooth=True,
                        label=f"ellipse(a={a},b={b})")


def make_rounded_polygon(vertices, r):
    """Convex polygon with corners replaced by circular arcs of radius ``r``.

    The boundary is C^1 with curvature jumping between 0 (segments) and 1/r
    (arcs); the domain is flagged non-smooth so downstream smoothness checks
    warn instead of fail.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise InvalidParameterError("need at least three planar vertices")
    if not r > 0:
        raise InvalidParameterError(f"rounding radius must be positive, got {r}")
    n = verts.shape[0]
    edges = np.roll(verts, -1, axis=0) - verts
    elen = np.linalg.norm(edges, axis=1)
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - \
        edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    if np.any(cross <= 0):
        raise InvalidParameterError("vertices must be strictly convex in "
                                    "counterclockwise order")
    if not r < 0.5 * elen.min():
        raise InvalidParameterError(
            f"rounding radius {r} too large for shortest edge {elen.min()}")

    unit = edges / elen[:, None]
    pieces = []          # (kind, data, piece_length)
    total = 0.0
    for i in range(n):
        prev_u = unit[i - 1]
        next_u = unit[i]
        # interior angle at vertex i between incoming and outgoing edges
        cos_phi = float(np.clip(-prev_u @ next_u, -1.0, 1.0))
        phi = math.acos(cos_phi)
        turn = math.pi - phi
        t_off = r / math.tan(phi / 2.0)
        if t_off > 0.5 * min(elen[i - 1], elen[i]):
            raise InvalidParameterError(
                f"rounding radius {r} leaves no straight part at vertex {i}")
        p_in = verts[i] - t_off * prev_u
        p_out = verts[i] + t_off * next_u
        bisector = (next_u - prev_u)
        bisector /= np.linalg.norm(bisector)
        center = verts[i] + (r / math.sin(phi / 2.0)) * bisector
        a0 = math.atan2(p_in[1] - center[1], p_in[0] - center[0])
        pieces.append(("arc", (center, a0, turn), r * turn))
        total += r * turn
        seg_start = p_out
        seg_end = verts[(i + 1) % n] - (r / math.tan(
            math.acos(float(np.clip(-unit[i] @ unit[(i + 1) % n], -1, 1))) / 2.0)) * unit[i]
        seg_len = float(np.linalg.norm(seg_end - seg_start))
        pieces.append(("seg", (seg_start, seg_end), seg_len))
        total += seg_len

    L = total
    s_samples = np.linspace(0.0, L, _TABLE_SIZE, endpoint=False)
    pts = np.empty((_TABLE_SIZE, 2))
    kap = np.empty(_TABLE_SIZE)
    bounds = np.cumsum([0.0] + [p[2] for p in pieces])
    idx = np.searchsorted(bounds, s_samples, side="right") - 1
    idx = np.clip(idx, 0, len(pieces) - 1)
    for k in range(_TABLE_SIZE):
        kind, data, plen = pieces[idx[k]]
        local = s_samples[k] - bounds[idx[k]]
        if kind == "arc":
            center, a0, turn = data
            ang = a0 + local / r
            pts[k] = center + r * np.array([math.cos(ang), math.sin(ang)])
            kap[k] = 1.0 / r
        else:
            p0, p1 = data
            frac = 0.0 if plen == 0 else local / plen
            pts[k] = p0 + frac * (p1 - p0)
            kap[k] = 0.0

    # exact area: polygon minus the corner kites plus the circular sectors
    x, y = verts[:, 0], verts[:, 1]
    poly_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    area = poly_area
    for i in range(n):
        prev_u, next_u = unit[i - 1], unit[i]
        phi = math.acos(float(np.clip(-prev_u @ next_u, -1.0, 1.0)))
        turn = math.pi - phi
        t_off = r / math.tan(phi / 2.0)
        area -= t_off * r - 0.5 * r * r * turn

    warnings.warn("rounded polygon boundary is only C^{1,1}; corner curvature "
                  "jumps between 0 and 1/r", stacklevel=2)
    return ConvexDomain(pts, s_samples, L, kap, float(area), smooth=False,
                        label=f"rounded_polygon(n={n},r={r})")


class TriMesh:
    """Conforming triangulation of a convex domain.

    Vertices are (N, 2); cells are (M, 3) vertex indices, counterclockwise;
    ``boundary_edges`` are consecutive (tail, head) pairs forming one closed
    counterclockwise loop, with ``boundary_lengths``.  Everything that
    depends on the mesh alone is built here once: cell areas, centroids and
    P1 basis gradients eagerly, the vertex adjacency and the vertex
    averaging operator on first use.
    """

    def __init__(self, vertices, cells, boundary_edges, strict=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.strict = strict

        p = self.vertices
        c = self.cells
        d1 = p[c[:, 1]] - p[c[:, 0]]
        d2 = p[c[:, 2]] - p[c[:, 0]]
        self.cell_areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if strict and np.any(self.cell_areas <= 0):
            raise MeshQualityError("non-positive cell area",
                                   {"bad_cells": int(np.sum(self.cell_areas <= 0))})

        self.boundary_lengths = np.linalg.norm(
            p[self.boundary_edges[:, 1]] - p[self.boundary_edges[:, 0]], axis=1)

        edges = np.vstack([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]])
        self.h = float(np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1).max())

        self.n_vertices = p.shape[0]
        self.n_cells = c.shape[0]
        self.is_boundary_vertex = np.zeros(self.n_vertices, dtype=bool)
        self.is_boundary_vertex[self.boundary_edges.ravel()] = True

        # P1 basis gradients: grad_phi[m, k] is the gradient on cell m of
        # the hat function of vertex cells[m, k]; the inverse edge matrix
        # (edge vectors as rows) holds those of local vertices 1 and 2
        ginv = np.linalg.inv(np.stack([d1, d2], axis=1))
        self.grad_phi = np.stack([-ginv[:, :, 0] - ginv[:, :, 1],
                                  ginv[:, :, 0], ginv[:, :, 1]], axis=1)
        self.cell_centroids = p[c].mean(axis=1)

        self._neighbors = None
        self._averaging = None
        self._centroid_tree = None

    # -- derived structure -------------------------------------------------

    def vertex_neighbors(self):
        """CSR vertex adjacency ``(indptr, indices)``: the sorted neighbors
        of vertex i are ``indices[indptr[i]:indptr[i + 1]]``."""
        if self._neighbors is None:
            c = self.cells
            pairs = np.vstack([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]])
            pairs = np.vstack([pairs, pairs[:, ::-1]])
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
            keep = np.ones(len(pairs), bool)
            keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
            pairs = pairs[keep]
            self._neighbors = (
                np.searchsorted(pairs[:, 0], np.arange(self.n_vertices + 1)),
                pairs[:, 1])
        return self._neighbors

    def vertex_average(self, cell_values):
        """Area-weighted average of a per-cell (M, k) array over the cells
        around each vertex, shape (N, k).

        The sparse sum operator is built on first use; each row sums its
        cells in the order local corner 0, 1, 2, then cell index.
        """
        if self._averaging is None:
            rows = self.cells.T.ravel()
            order = np.argsort(rows, kind="stable")
            areas = np.tile(self.cell_areas, 3)
            indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n_vertices),
                      out=indptr[1:])
            op = sp.csr_matrix(
                (areas[order], np.tile(np.arange(self.n_cells), 3)[order],
                 indptr), shape=(self.n_vertices, self.n_cells))
            self._averaging = (op, np.bincount(rows, weights=areas,
                                               minlength=self.n_vertices))
        op, total = self._averaging
        return (op @ cell_values) / total[:, None]

    def cell_gradients(self, values):
        """Constant P1 gradient per cell for a vertex field, shape (M, 2)."""
        v = np.asarray(values, dtype=float)
        c = self.cells
        return (self.grad_phi[:, 1] * (v[c[:, 1]] - v[c[:, 0]])[:, None]
                + self.grad_phi[:, 2] * (v[c[:, 2]] - v[c[:, 0]])[:, None])

    def min_angle_deg(self):
        return _min_angle_deg(self.vertices, self.cells)

    def mesh_hash(self):
        hsh = hashlib.sha256()
        hsh.update(self.vertices.tobytes())
        hsh.update(self.cells.tobytes())
        return hsh.hexdigest()[:16]

    # -- point location and interpolation -----------------------------------

    def locate(self, points, tol=1e-9):
        """Cell index containing each query point (-1 if outside).

        KD-tree over centroids plus barycentric checks against the nearest
        candidate cells; meshes here are quality bounded so a small candidate
        set always suffices.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._centroid_tree is None:
            self._centroid_tree = cKDTree(self.cell_centroids)
        k = min(24, self.n_cells)
        _, cand = self._centroid_tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        out = np.full(len(pts), -1, dtype=np.int64)
        pending = np.arange(len(pts))
        for col in range(cand.shape[1]):
            if pending.size == 0:
                break
            cells = cand[pending, col]
            lam = self._barycentric(pts[pending], cells)
            ok = lam.min(axis=1) >= -tol
            out[pending[ok]] = cells[ok]
            pending = pending[~ok]
        if pending.size:
            # fall back to brute force for stragglers (points near slivers)
            for i in pending:
                lam = self._barycentric(np.repeat(pts[i:i + 1], self.n_cells, axis=0),
                                        np.arange(self.n_cells))
                good = np.nonzero(lam.min(axis=1) >= -tol)[0]
                if good.size:
                    out[i] = good[0]
        return out

    def _barycentric(self, pts, cells):
        tri = self.vertices[self.cells[cells]]
        v0 = tri[:, 1] - tri[:, 0]
        v1 = tri[:, 2] - tri[:, 0]
        d = pts - tri[:, 0]
        det = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
        l1 = (d[:, 0] * v1[:, 1] - d[:, 1] * v1[:, 0]) / det
        l2 = (v0[:, 0] * d[:, 1] - v0[:, 1] * d[:, 0]) / det
        return np.column_stack([1.0 - l1 - l2, l1, l2])

    def interpolate(self, values, points):
        """P1 interpolation of a per-vertex field (scalar or vector) at points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.locate(pts)
        if np.any(cells < 0):
            bad = pts[cells < 0][0]
            raise InvalidParameterError(f"point {bad} outside mesh")
        lam = self._barycentric(pts, cells)
        vals = np.asarray(values, dtype=float)
        vertex_vals = vals[self.cells[cells]]
        if vertex_vals.ndim == 2:
            return np.einsum("pk,pk->p", lam, vertex_vals)
        return np.einsum("pk,pki->pi", lam, vertex_vals)


def triangulate(domain, h_target):
    """Triangulate a convex domain with target edge length ``h_target``.

    Boundary samples at arc-length spacing below ``h_target``, a hexagonal
    interior lattice, Delaunay triangulation, then Laplacian smoothing of the
    interior until the 20 degree minimum-angle bound holds.  Deterministic:
    identical inputs give identical meshes.
    """
    if not (0 < h_target < domain.length / 8.0):
        raise InvalidParameterError(
            f"h_target must lie in (0, L/8) = (0, {domain.length / 8.0}), "
            f"got {h_target}")

    L = domain.length
    n_b = max(8, int(math.ceil(L / (_BOUNDARY_SPACING_FACTOR * h_target))))
    if n_b <= _TABLE_SIZE // 4:
        # snap samples to table knots: exact positions keep straight boundary
        # runs exactly collinear, so degenerate hull slivers filter cleanly
        knots = np.round(np.arange(n_b) * (L / n_b)
                         / (L / _TABLE_SIZE)).astype(int)
        boundary_pts = domain._table_pts[np.unique(knots % _TABLE_SIZE)]
    else:
        s = np.arange(n_b) * (L / n_b)
        boundary_pts = domain.position(s)
        # the C^2 spline overshoots where an arc meets a straight run (a
        # reflex loop vertex that Delaunay fans into slivers), so a sample
        # in a table interval with a zero-curvature end takes the chord
        ts, kappa = domain._table_s, domain._table_kappa
        i = np.clip(np.searchsorted(ts, s, side="right") - 1, 0, len(ts) - 2)
        k = np.nonzero((kappa[i] == 0.0) | (kappa[i + 1] == 0.0))[0]
        i = i[k]
        frac = ((s[k] - ts[i]) / (ts[i + 1] - ts[i]))[:, None]
        p0, p1 = domain._table_pts[i], domain._table_pts[i + 1]
        boundary_pts[k] = p0 + frac * (p1 - p0)

    interior = _hex_lattice(domain, _LATTICE_SPACING_FACTOR * h_target)
    return mesh_from_loop(boundary_pts, interior)


def mesh_from_loop(loop_pts, interior_pts):
    """Delaunay mesh of a convex region from its boundary loop and fill points.

    ``loop_pts`` must trace the boundary counterclockwise; they stay fixed
    while interior points are Laplace-smoothed until the quality bound holds.
    """
    n_b = len(loop_pts)
    points = np.vstack([loop_pts, interior_pts]) if len(interior_pts) \
        else np.asarray(loop_pts, dtype=float)

    for _ in range(40):
        cells = _delaunay_cells(points, n_b)
        if _mesh_quality_ok(points, cells):
            break
        points = _smooth_interior(points, cells, n_fixed=n_b)
    else:
        cells = _delaunay_cells(points, n_b)
        if not _mesh_quality_ok(points, cells):
            raise MeshQualityError(
                "smoothing failed to reach the 20 degree minimum angle",
                {"min_angle_deg": _min_angle_deg(points, cells),
                 "n_vertices": len(points)})

    cells = cells[np.lexsort(np.sort(cells, axis=1).T[::-1])]
    bedges = np.column_stack([np.arange(n_b), (np.arange(n_b) + 1) % n_b])
    mesh = TriMesh(points, cells, bedges)

    loop = np.vstack([points[:n_b], points[:1]])
    loop_area = 0.5 * np.sum(loop[:-1, 0] * loop[1:, 1]
                             - loop[1:, 0] * loop[:-1, 1])
    if abs(mesh.cell_areas.sum() - loop_area) > 1e-9 * loop_area:
        raise MeshQualityError(
            "triangulation does not tile the boundary polygon",
            {"cell_area_sum": float(mesh.cell_areas.sum()),
             "polygon_area": float(loop_area)})
    return mesh


def _delaunay_cells(points, n_boundary):
    tri = Delaunay(points)
    if len(tri.coplanar):
        raise MeshQualityError(
            "Delaunay dropped input points as coplanar",
            {"dropped": tri.coplanar[:, 0].tolist()})
    cells = tri.simplices
    p = points
    d1 = p[cells[:, 1]] - p[cells[:, 0]]
    d2 = p[cells[:, 2]] - p[cells[:, 0]]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # collinear boundary runs make qhull emit exactly degenerate simplices;
    # they carry no area and must not survive into the mesh
    scale = float(np.ptp(points, axis=0).max()) ** 2
    keep = np.abs(areas) > 1e-12 * scale
    cells, flip = cells[keep], areas[keep] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    return cells


def _hex_lattice(domain, a):
    """Hexagonal lattice points, row by row, inside the domain and at least
    ``_INTERIOR_CLEARANCE * a`` from every boundary sample."""
    pts = domain._table_pts
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    dy = a * math.sqrt(3.0) / 2.0
    rows = int(math.floor((ymax - ymin) / dy)) + 1
    cols = int(math.floor((xmax - xmin) / a)) + 2
    j = np.arange(rows + 1)
    xs = (xmin + 0.5 * a * (j % 2))[:, None] + a * np.arange(cols)
    ys = np.broadcast_to((ymin + j * dy)[:, None], xs.shape)
    cand = np.stack([xs, ys], axis=-1).reshape(-1, 2)
    side, d = domain._side_and_distance(cand)
    return cand[(side < 0.0) & (d >= _INTERIOR_CLEARANCE * a)]


def _min_angle_deg(points, cells):
    """Smallest interior angle, in degrees, over all cells."""
    p = points[cells]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("mi,mi->m", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return float(np.min(angles))


def _mesh_quality_ok(points, cells):
    return _min_angle_deg(points, cells) >= _MIN_ANGLE_DEG


def _smooth_interior(points, cells, n_fixed):
    n = len(points)
    acc = np.zeros((n, 2))
    cnt = np.zeros(n)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        np.add.at(acc, cells[:, i], points[cells[:, j]])
        np.add.at(cnt, cells[:, i], 1.0)
        np.add.at(acc, cells[:, j], points[cells[:, i]])
        np.add.at(cnt, cells[:, j], 1.0)
    new = points.copy()
    movable = cnt > 0
    movable[:n_fixed] = False
    new[movable] = acc[movable] / cnt[movable, None]
    return new


def submesh(mesh, cell_mask):
    """Restriction of a mesh to a subset of cells.

    Returns (TriMesh, vertex_index_map old->new).  Boundary edges are
    recomputed as the edges with exactly one kept incident cell; the result
    may bound a non-convex region, so strict loop validation is relaxed.
    """
    keep_cells = mesh.cells[cell_mask]
    used = np.unique(keep_cells)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    new_cells = remap[keep_cells]
    new_verts = mesh.vertices[used]

    edges = np.vstack([new_cells[:, [0, 1]], new_cells[:, [1, 2]],
                       new_cells[:, [2, 0]]])
    key = np.sort(edges, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key_sorted = key[order]
    edge_sorted = edges[order]
    bmask = np.ones(len(key_sorted), dtype=bool)
    dup = np.all(key_sorted[1:] == key_sorted[:-1], axis=1)
    bmask[1:][dup] = False
    bmask[:-1][dup] = False
    bedges = edge_sorted[bmask]
    return TriMesh(new_verts, new_cells, bedges, strict=False), remap
