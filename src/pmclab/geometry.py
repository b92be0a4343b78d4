"""Bounded convex planar domains and quality triangulations of them.

A domain is its exact boundary: each factory hands :class:`ConvexDomain`
vectorized functions of arc length for the boundary point and the outward
unit normal, which a conic or rounded polygon evaluates in closed form.
Every mesh samples its boundary at equal arc lengths of that exact curve; a
table of 2048 equally spaced boundary points serves the one hexagonal fill
lattice of every mesh, planar and meridian.  A mesh is the Delaunay
triangulation of the two (qhull runs on a boundary band only); a mesh whose
minimum cell angle is below 20 degrees is refused.  Everything here is a pure
function of its inputs: two calls with identical arguments return identical
vertex and cell arrays.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay, cKDTree
from scipy.special import ellipeinc

from .errors import InvalidParameterError, MeshQualityError

_TABLE_SIZE = 2048
# boundary sampling denser than h_target so polygonal area/length deficits
# stay well inside the O(h^2) budget; lattice slightly denser still so the
# longest edge stays within 1.5 h_target
_BOUNDARY_SPACING_FACTOR = 0.85
_LATTICE_SPACING_FACTOR = 0.9
_INTERIOR_CLEARANCE = 0.5
_MIN_ANGLE_DEG = 20.0


class ConvexDomain:
    """Closed strictly convex planar region given by its exact boundary.

    ``position`` and ``normal`` map an array of arc lengths in [0, length)
    to boundary points and outward unit normals (shape ``s.shape + (2,)``),
    counterclockwise from s = 0; the methods of the same names wrap any s
    into that range.  The table holds the points at the ``_TABLE_SIZE``
    knots ``np.linspace(0, length, _TABLE_SIZE, endpoint=False)``, with a
    KD-tree over them for the lattice clearance; ``diameter`` is the
    diagonal of the table's bounding box, ``area`` the exact enclosed area.
    """

    def __init__(self, position, normal, length, area):
        self.length = float(length)
        self.area = float(area)
        self._position, self._normal = position, normal
        self._table_pts = position(
            np.linspace(0.0, self.length, _TABLE_SIZE, endpoint=False))
        if _loop_area(self._table_pts, _TABLE_SIZE) <= 0:
            raise InvalidParameterError("boundary must be counterclockwise")
        self._tree = cKDTree(self._table_pts)

    @property
    def diameter(self):
        pts = self._table_pts
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def position(self, s):
        return self._position(np.mod(s, self.length))

    def normal(self, s):
        return self._normal(np.mod(s, self.length))


def _unit(theta):
    """Unit vectors at angles ``theta``, shape ``theta.shape + (2,)``."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def make_disk(R):
    """Disk of radius ``R`` centered at the origin."""
    if not R > 0:
        raise InvalidParameterError(f"disk radius must be positive, got {R}")
    return ConvexDomain(lambda s: R * _unit(s / R), lambda s: _unit(s / R),
                        2.0 * math.pi * R, math.pi * R * R)


def make_ellipse(a, b):
    """Ellipse with semi-axes ``a`` (x1) and ``b`` (x2), arc-length
    parametrized: s(theta) = b E(theta | 1 - a^2/b^2) from (a, 0), E the
    incomplete elliptic integral of the second kind, inverted by four Newton
    steps from its linear interpolant on 257 knots."""
    if not (a > 0 and b > 0):
        raise InvalidParameterError(f"ellipse axes must be positive, got {a}, {b}")
    m = 1.0 - (a / b) ** 2
    knots = np.linspace(0.0, 2.0 * math.pi, 257)
    s_knots = b * ellipeinc(knots, m)

    def theta(s):
        th = np.interp(s, s_knots, knots)
        for _ in range(4):
            th = th - (b * ellipeinc(th, m) - s) / np.hypot(a * np.sin(th),
                                                           b * np.cos(th))
        return th

    def position(s):
        th = theta(s)
        return np.stack([a * np.cos(th), b * np.sin(th)], axis=-1)

    def normal(s):
        th = theta(s)
        n = np.stack([b * np.cos(th), a * np.sin(th)], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    return ConvexDomain(position, normal, s_knots[-1], math.pi * a * b)


def make_rounded_polygon(vertices, r):
    """Convex polygon with corners replaced by circular arcs of radius ``r``.

    The boundary is only C^{1,1}: its curvature jumps between 0 (segments)
    and 1/r (arcs), which a warning reports.
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
    # interior angle at each vertex between its incoming and outgoing edges,
    # and the distance from the vertex to either end of its arc
    phi = [math.acos(float(np.clip(-unit[i - 1] @ unit[i], -1.0, 1.0)))
           for i in range(n)]
    t_off = [r / math.tan(f / 2.0) for f in phi]
    # piece 2i is the arc around corner i, piece 2i + 1 the straight run
    # along edge i from seg_start[i] to seg_end[i]
    centers, a0, seg_start, seg_end = (np.empty((n, 2)), np.empty(n),
                                       np.empty((n, 2)), np.empty((n, 2)))
    lengths = []
    kites = []           # area of each corner kite beyond its sector
    for i in range(n):
        if t_off[i] > 0.5 * min(elen[i - 1], elen[i]):
            raise InvalidParameterError(
                f"rounding radius {r} leaves no straight part at vertex {i}")
        turn = math.pi - phi[i]
        bisector = unit[i] - unit[i - 1]
        bisector /= np.linalg.norm(bisector)
        centers[i] = verts[i] + (r / math.sin(phi[i] / 2.0)) * bisector
        p_in = verts[i] - t_off[i] * unit[i - 1]
        a0[i] = math.atan2(p_in[1] - centers[i, 1], p_in[0] - centers[i, 0])
        kites.append(t_off[i] * r - 0.5 * r * r * turn)
        seg_start[i] = verts[i] + t_off[i] * unit[i]
        seg_end[i] = verts[(i + 1) % n] - t_off[(i + 1) % n] * unit[i]
        lengths += [r * turn, float(np.linalg.norm(seg_end[i] - seg_start[i]))]
    bounds = np.cumsum([0.0] + lengths)
    seg_len, seg_step = np.array(lengths[1::2]), seg_end - seg_start
    seg_normal = np.column_stack([unit[:, 1], -unit[:, 0]])

    def boundary(s, normal):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(bounds, s.ravel(), side="right") - 1,
                    0, 2 * n - 1)
        local = s.ravel() - bounds[k]
        i, arc = k // 2, k % 2 == 0
        out = np.empty(local.shape + (2,))
        radial = _unit(a0[i[arc]] + local[arc] / r)
        out[arc] = radial if normal else centers[i[arc]] + r * radial
        j, run = i[~arc], local[~arc]
        out[~arc] = seg_normal[j] if normal else \
            seg_start[j] + (run / seg_len[j])[:, None] * seg_step[j]
        return out.reshape(s.shape + (2,))

    # exact area: polygon minus the corner kites plus the circular sectors
    x, y = verts[:, 0], verts[:, 1]
    poly_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    area = poly_area
    for kite in kites:
        area -= kite

    warnings.warn("rounded polygon boundary is only C^{1,1}; corner curvature "
                  "jumps between 0 and 1/r", stacklevel=2)
    return ConvexDomain(lambda s: boundary(s, False), lambda s: boundary(s, True),
                        bounds[-1], float(area))


class TriMesh:
    """Conforming triangulation of a convex domain.

    Vertices are (N, 2); cells are (M, 3) vertex indices, counterclockwise;
    ``boundary_edges`` are consecutive (tail, head) pairs forming one closed
    counterclockwise loop, with ``boundary_lengths``.  Everything that
    depends on the mesh alone is built here once: cell areas, centroids and
    the P1 gradient operator eagerly, the vertex adjacency and the vertex
    averaging operator on first use.

    ``gradient`` is the CSR operator (2M, N) taking vertex values to cell
    gradients: row m holds the x and row M + m the y component on cell m.
    Its data is the one copy of the P1 basis gradients, which
    ``basis_gradients`` views as (2, M, 3): ``basis_gradients[i, m, k]`` is
    component i of the gradient on cell m of the hat function of vertex
    ``cells[m, k]``.
    """

    def __init__(self, vertices, cells, boundary_edges):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)

        p = self.vertices
        c = self.cells
        d1 = p[c[:, 1]] - p[c[:, 0]]
        d2 = p[c[:, 2]] - p[c[:, 0]]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.cell_areas = 0.5 * det
        if np.any(self.cell_areas <= 0):
            raise MeshQualityError("non-positive cell area")

        self.boundary_lengths = np.linalg.norm(
            p[self.boundary_edges[:, 1]] - p[self.boundary_edges[:, 0]], axis=1)

        edges = np.vstack([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]])
        self.h = float(np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1).max())

        self.n_vertices = p.shape[0]
        self.n_cells = c.shape[0]
        self.is_boundary_vertex = np.zeros(self.n_vertices, dtype=bool)
        self.is_boundary_vertex[self.boundary_edges.ravel()] = True

        # the columns of the inverse edge matrix (edge vectors as rows),
        # in closed form, are the basis gradients of local vertices 1 and 2
        grad = np.empty((2, self.n_cells, 3))
        grad[0, :, 1], grad[1, :, 1] = d2[:, 1] / det, -d2[:, 0] / det
        grad[0, :, 2], grad[1, :, 2] = -d1[:, 1] / det, d1[:, 0] / det
        grad[:, :, 0] = -grad[:, :, 1] - grad[:, :, 2]
        grad.flags.writeable = False
        self.basis_gradients = grad
        self.gradient = sp.csr_matrix(
            (grad.reshape(-1), np.tile(c.astype(np.int32).ravel(), 2),
             np.arange(0, 6 * self.n_cells + 1, 3)),
            shape=(2 * self.n_cells, self.n_vertices))
        self.cell_centroids = p[c].mean(axis=1)

        self._neighbors = self._averaging = self._centroid_tree = None

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
        return (self.gradient @ np.asarray(values, dtype=float)).reshape(
            2, self.n_cells).T

    def min_angle_deg(self):
        return float(_cell_min_angles_deg(self.vertices, self.cells).min())

    def mesh_hash(self):
        hsh = hashlib.sha256()
        hsh.update(self.vertices.tobytes())
        hsh.update(self.cells.tobytes())
        return hsh.hexdigest()[:16]

    # -- point location and interpolation -----------------------------------

    def locate(self, points):
        """Cell index containing each query point (-1 if outside).

        KD-tree over centroids plus barycentric checks against the nearest
        candidate cells, nearest first: the 4 nearest, then up to the 24
        nearest for the points not yet located.  Meshes here are quality
        bounded, so the cell holding an inside point is always among its 24
        nearest centroids, and a point that none of them holds is outside;
        there is no scan of all cells.  A point is inside a cell when its
        barycentric coordinates there are all >= -1e-9.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._centroid_tree is None:
            self._centroid_tree = cKDTree(self.cell_centroids)
        out = np.full(len(pts), -1, dtype=np.int64)
        pending = np.arange(len(pts))
        done = 0
        for k in (min(4, self.n_cells), min(24, self.n_cells)):
            if pending.size == 0:
                break
            _, cand = self._centroid_tree.query(pts[pending], k=k)
            cand = cand.reshape(len(pending), -1)
            for col in range(done, k):
                if pending.size == 0:
                    break
                cells = cand[:, col]
                lam = self._barycentric(pts[pending], cells)
                ok = lam.min(axis=1) >= -1e-9
                out[pending[ok]] = cells[ok]
                pending, cand = pending[~ok], cand[~ok]
            done = k
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

    Boundary samples at arc-length spacing below ``h_target`` and an
    equilateral interior lattice, meshed by :func:`mesh_from_loop`: their
    Delaunay cells, with qhull run on the boundary band only, under the 20
    degree minimum-angle bound.  Deterministic: identical inputs give
    identical meshes.
    """
    if not (0 < h_target < domain.length / 8.0):
        raise InvalidParameterError(
            f"h_target must lie in (0, L/8) = (0, {domain.length / 8.0}), "
            f"got {h_target}")

    L = domain.length
    n_b = max(8, int(math.ceil(L / (_BOUNDARY_SPACING_FACTOR * h_target))))
    return mesh_from_loop(domain.position(np.arange(n_b) * (L / n_b)),
                          *_hex_lattice(domain,
                                        _LATTICE_SPACING_FACTOR * h_target))


def mesh_from_loop(loop_pts, interior_pts, lattice=()):
    """Delaunay mesh of a convex region from its boundary loop and fill points.

    ``loop_pts`` must trace the boundary counterclockwise.  Given the fill's
    lattice (row, column), qhull runs on a boundary band only
    (:func:`_band_cells`); otherwise, or when the band cannot stand in, on
    all points.  A minimum cell angle below 20 degrees raises
    :class:`MeshQualityError`.  Each cell starts at its smallest vertex,
    counterclockwise: the mesh depends on the cell set only.
    """
    n_b = len(loop_pts)
    points = np.vstack([loop_pts, interior_pts]) if len(interior_pts) \
        else np.asarray(loop_pts, dtype=float)

    cells = _band_cells(points, n_b, lattice) if len(lattice) else None
    if cells is None:
        cells = _delaunay_cells(points)
    angles = _cell_min_angles_deg(points, cells)
    worst = int(np.argmin(angles))
    if angles[worst] < _MIN_ANGLE_DEG:
        raise MeshQualityError(
            "worst cell has all three vertices on the loop"
            if np.all(cells[worst] < n_b)
            else "minimum cell angle below 20 degrees")

    first = np.argmin(cells, axis=1)[:, None]
    cells = np.take_along_axis(cells, (first + np.arange(3)) % 3, axis=1)
    cells = cells[np.lexsort(np.sort(cells, axis=1).T[::-1])]
    bedges = np.column_stack([np.arange(n_b), (np.arange(n_b) + 1) % n_b])
    mesh = TriMesh(points, cells, bedges)

    loop_area = _loop_area(points, n_b)
    if abs(mesh.cell_areas.sum() - loop_area) > 1e-9 * loop_area:
        raise MeshQualityError(
            "triangulation does not tile the boundary polygon")
    return mesh


def _band_cells(points, n_b, lattice):
    """Delaunay cells of a loop (``points[:n_b]``) plus fill points at the
    (row, column) ``lattice`` of an equilateral lattice, column in half
    spacings.  A lattice triangle's circumcircle (radius a / sqrt 3) holds no
    other lattice point, so it is a cell iff it holds no loop point; qhull
    runs on the points not surrounded by six such cells, keeping the cells
    whose circumcircle holds no surrounded point.  None (run qhull on all)
    for a fill off the lattice, a near tie (1e-9 a), a cell count other than
    2N - n_b - 2, or cells that do not tile the loop."""
    row, col = (np.asarray(lattice) - np.min(lattice, axis=0)).T
    # padded: row index -1 reads the last row, which holds no point
    grid = np.full((row.max() + 2, col.max() + 3), -1)
    grid[row, col] = np.arange(n_b, len(points))
    # up (r, c) (r, c+2) (r+1, c+1), down (r, c) (r-1, c+1) (r, c+2)
    tri = grid[row[:, None, None] + [[0, 0, 1], [0, -1, 0]],
               col[:, None, None] + [[0, 2, 1], [0, 1, 2]]].reshape(-1, 3)
    tri = tri[np.all(tri >= 0, axis=1)]
    if not len(tri):
        return None
    edges = np.linalg.norm(np.diff(points[tri[:, [0, 1, 2, 0]]], axis=1), axis=2)
    tol = 1e-9 * edges.max()
    gap = _circle_gaps(points, tri, points[:n_b])
    if edges.max() - edges.min() > tol or np.any(np.abs(gap) <= tol):
        return None
    tri = tri[gap > 0]
    inner = np.bincount(tri.ravel(), minlength=len(points)) == 6
    band = np.nonzero(~inner)[0]
    cells = band[_delaunay_cells(points[band])]
    gap = _circle_gaps(points, cells, points[inner])
    if np.any(np.abs(gap) <= tol):
        return None
    cells = np.vstack([tri[inner[tri].any(axis=1)], cells[gap > 0]])
    loop_area = _loop_area(points, n_b)
    ok = len(cells) == 2 * len(points) - n_b - 2 and abs(
        _signed_areas(points, cells).sum() - loop_area) <= 1e-9 * loop_area
    return cells if ok else None


def _circle_gaps(points, cells, others):
    """Distance from each cell's circumcircle to the nearest of ``others``,
    negative inside."""
    p0 = points[cells[:, 0]]
    b, c = points[cells[:, 1]] - p0, points[cells[:, 2]] - p0
    bb, cc = np.einsum("mi,mi->m", b, b), np.einsum("mi,mi->m", c, c)
    centre = np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                              b[:, 0] * cc - c[:, 0] * bb]) \
        / (2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))[:, None]
    radius = np.hypot(centre[:, 0], centre[:, 1])
    # a search radius past every circle: farther points read as inf
    dist, _ = cKDTree(others).query(p0 + centre,
                                    distance_upper_bound=2.0 * radius.max())
    return dist - radius


def _signed_areas(points, cells):
    d1, d2 = (points[cells[:, k]] - points[cells[:, 0]] for k in (1, 2))
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _loop_area(points, n_b):
    x, y = points[:n_b].T
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _delaunay_cells(points):
    tri = Delaunay(points)
    if len(tri.coplanar):
        raise MeshQualityError("Delaunay dropped input points as coplanar")
    cells = tri.simplices
    areas = _signed_areas(points, cells)
    # collinear boundary runs make qhull emit exactly degenerate simplices;
    # they carry no area and must not survive into the mesh
    scale = float(np.ptp(points, axis=0).max()) ** 2
    keep = np.abs(areas) > 1e-12 * scale
    cells, flip = cells[keep], areas[keep] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    return cells


def _hex_lattice(domain, a, x_min=None):
    """Hexagonal lattice points of spacing ``a``, row by row, strictly
    inside their row's chord of the table polygon and at least
    ``_INTERIOR_CLEARANCE * a`` from every table point, with their integer
    (row, column), the column counted in half spacings.

    Rows start at the table's lowest point, columns at its leftmost one or
    at ``x_min``, which then also drops the points within the clearance of
    the line x = x_min (the meridian half: x_min = 0 is the axis).  The
    polygon differs from the exact curve only within the chord sag (about
    1e-6 R on a disk of radius R), which the clearance excludes."""
    pts = domain._table_pts
    (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
    if x_min is not None:
        xmin = x_min
    clearance = _INTERIOR_CLEARANCE * a
    dy = a * math.sqrt(3.0) / 2.0
    rows = int(math.floor((ymax - ymin) / dy)) + 1
    cols = int(math.floor((xmax - xmin) / a)) + 2
    j = np.arange(rows + 1)
    ys = ymin + j * dy
    xs = (xmin + 0.5 * a * (j % 2))[:, None] + a * np.arange(cols)
    left, right = _row_intervals(pts, ys)
    keep = (xs > left[:, None]) & (xs < right[:, None])
    if x_min is not None:
        keep &= xs >= x_min + clearance
    row, col = np.nonzero(keep)
    cand = np.column_stack([xs[row, col], ys[row]])
    # knots farther than the clearance read as inf
    d, _ = domain._tree.query(cand, distance_upper_bound=clearance)
    far = d >= clearance
    return cand[far], np.column_stack([row, 2 * col + row % 2])[far]


def _row_intervals(pts, ys):
    """Ends of the chord of the convex counterclockwise polygon ``pts`` on
    each line y in ``ys``, interpolated along its two y-monotone chains
    (both ends equal off the polygon's y range).  A flat bottom or top only
    puts equal y at the ends of a chain, on a line that holds no inside
    point."""
    k0, k1 = int(np.argmin(pts[:, 1])), int(np.argmax(pts[:, 1]))
    loop = np.roll(pts, -k0, axis=0)
    top = (k1 - k0) % len(pts)
    rising = loop[:top + 1]
    falling = np.vstack([loop[top:], loop[:1]])[::-1]
    return (np.interp(ys, falling[:, 1], falling[:, 0]),
            np.interp(ys, rising[:, 1], rising[:, 0]))


def _cell_min_angles_deg(points, cells):
    """Smallest interior angle of each cell, in degrees."""
    p = points[cells]
    angles = []
    for i in range(3):
        a, b = p[:, (i + 1) % 3] - p[:, i], p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("mi,mi->m", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return np.min(angles, axis=0)


def submesh(mesh, cell_mask):
    """Restriction of a mesh to a subset of cells.

    Returns (TriMesh, vertex_index_map old->new).  Boundary edges are
    recomputed as the edges with exactly one kept incident cell; the result
    may bound a non-convex region and need not be one loop.  The kept cells
    keep their vertex coordinates, so they pass the positive-area check of
    :class:`TriMesh` again.
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
    return TriMesh(new_verts, new_cells, bedges), remap
