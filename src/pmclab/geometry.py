"""Bounded convex planar domains and quality triangulations of them.

A domain is its exact boundary: each factory hands :class:`ConvexDomain`
vectorized functions of arc length for the boundary point and the outward
unit normal, which a conic or rounded polygon evaluates in closed form.
Every mesh samples its boundary at equal arc lengths of that exact curve; a
table of 2048 equally spaced boundary points serves the one hexagonal fill
lattice of every mesh, planar and meridian.  A mesh is the Delaunay
triangulation of the two, by one path: the lattice cells built directly,
the boundary band gift-wrapped, exact cocircular ties broken by one fixed
symbolic rule; a mesh whose minimum cell angle is below 20 degrees is
refused.  Point queries (the lattice clearance, the wrap, point location,
critical point clusters) read one private bucket grid, and the ellipse's
arc length is evaluated here, so a run loads no spatial or special-function
library.  Everything here is a pure function of its inputs: two calls
with identical arguments return identical vertex and cell arrays.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

from .errors import InvalidParameterError, MeshQualityError
from .sparse import Csr

_TABLE_SIZE = 2048
# boundary sampling denser than h_target so polygonal area/length deficits
# stay well inside the O(h^2) budget; lattice slightly denser still so the
# longest edge stays within 1.5 h_target
_BOUNDARY_SPACING_FACTOR = 0.85
_LATTICE_SPACING_FACTOR = 0.9
_INTERIOR_CLEARANCE = 0.5
_MIN_ANGLE_DEG = 20.0
# query points per pass of a bucket-grid search: bounds the transient
# candidate arrays, which must stay below the Newton solve's peak
_CHUNK = 1024


class ConvexDomain:
    """Closed strictly convex planar region given by its exact boundary.

    ``position`` and ``normal`` map an array of arc lengths in [0, length)
    to boundary points and outward unit normals (shape ``s.shape + (2,)``),
    counterclockwise from s = 0; the methods of the same names wrap any s
    into that range.  The table holds the points at the ``_TABLE_SIZE``
    knots ``np.linspace(0, length, _TABLE_SIZE, endpoint=False)``;
    ``diameter`` is the diagonal of the table's bounding box, ``area`` the
    exact enclosed area.
    """

    def __init__(self, position, normal, length, area):
        self.length = float(length)
        self.area = float(area)
        self._position, self._normal = position, normal
        self._table_pts = position(
            np.linspace(0.0, self.length, _TABLE_SIZE, endpoint=False))
        if _loop_area(self._table_pts, _TABLE_SIZE) <= 0:
            raise InvalidParameterError("boundary must be counterclockwise")

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
    incomplete elliptic integral of the second kind (:func:`_ellipe_inc`),
    inverted by four Newton steps from its linear interpolant on 257
    knots."""
    if not (a > 0 and b > 0):
        raise InvalidParameterError(f"ellipse axes must be positive, got {a}, {b}")
    try:
        m = 1.0 - (a / b) ** 2
    except OverflowError:
        raise InvalidParameterError(
            f"ellipse axes {a}, {b}: (a / b)^2 overflows") from None
    knots = np.linspace(0.0, 2.0 * math.pi, 257)
    s_knots = b * _ellipe_inc(knots, m)

    def theta(s):
        th = np.interp(s, s_knots, knots)
        for _ in range(4):
            th = th - (b * _ellipe_inc(th, m) - s) / np.hypot(a * np.sin(th),
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


def _ellipe_inc(theta, m):
    """E(theta | m), the incomplete elliptic integral of the second kind,
    for m < 1: E(k pi + phi) = 2 k E(pi/2) + E(phi) with |phi| <= pi/2, and
    E(phi) = sin phi R_F(c, y, 1) - (m/3) sin^3 phi R_D(c, y, 1), c = cos^2
    phi, y = 1 - m sin^2 phi (Carlson 1995)."""
    theta = np.asarray(theta, dtype=float)
    k = np.round(theta / math.pi)
    phi = np.append(theta - k * math.pi, 0.5 * math.pi)
    s, c = np.sin(phi), np.cos(phi)
    rf, rd = _carlson_rf_rd(c * c, 1.0 - m * s * s)
    e = s * rf - (m / 3.0) * s ** 3 * rd
    return e[:-1].reshape(theta.shape) + 2.0 * k * e[-1]


def _carlson_rf_rd(x, y):
    """Carlson's R_F(x, y, 1) and R_D(x, y, 1) for x, y >= 0 (not both 0),
    by duplication until every argument lies within 1/600 of its mean, then
    their series through fifth order, truncation error below 1e-16
    (Carlson 1995)."""
    z = np.ones_like(x)
    mean_f, mean_d = (x + y + 1.0) / 3.0, (x + y + 3.0) / 5.0
    fx, fy, dx, dy = mean_f - x, mean_f - y, mean_d - x, mean_d - y
    spread = 600.0 * np.abs(np.concatenate(
        [fx, fy, 1.0 - mean_f, dx, dy, 1.0 - mean_d])).max()
    tail, p = np.zeros_like(x), 1.0
    while spread * p >= min(mean_f.min(), mean_d.min()):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += p / (sz * (z + lam))
        p *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean_f, mean_d = 0.25 * (mean_f + lam), 0.25 * (mean_d + lam)
    X, Y = p * fx / mean_f, p * fy / mean_f
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
          - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean_f)
    X, Y = p * dx / mean_d, p * dy / mean_d
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z
    e4, e5 = 3.0 * (xy - zz) * zz, xy * Z * zz
    rd = p / (mean_d * np.sqrt(mean_d)) * (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0) \
        + 3.0 * tail
    return rf, rd


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

    Vertices are (N, 2), finite; cells are (M, 3) int32 vertex indices,
    counterclockwise; ``boundary_edges`` are consecutive (tail, head) pairs
    forming one closed counterclockwise loop, with ``boundary_lengths``.
    Everything that depends on the mesh alone is built here once: cell
    areas, centroids and the P1 gradient operators eagerly, the vertex
    adjacency, the vertex averaging operator, the cell boxes of
    :meth:`locate`, the minimum angle and the hash on first use.  A product
    of two vertex indices overflows int32 past N = 46,340: index keys are
    int64.

    ``gradient`` is the pair of :class:`~pmclab.sparse.Csr` operators (M, N)
    taking vertex values to the x and the y component of the cell
    gradients.  Both take their indices from ``cells``, and their data is
    the one copy of the P1 basis gradients, which ``basis_gradients`` views
    as (2, M, 3): ``basis_gradients[i, m, k]`` is component i of the
    gradient on cell m of the hat function of vertex ``cells[m, k]``.
    """

    def __init__(self, vertices, cells, boundary_edges):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int32)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        if not np.all(np.isfinite(self.vertices)):
            raise MeshQualityError("non-finite vertex coordinates")

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
        indptr = np.arange(0, 3 * self.n_cells + 1, 3, dtype=np.int32)
        self.gradient = tuple(
            Csr(g.reshape(-1), c.reshape(-1), indptr,
                (self.n_cells, self.n_vertices))
            for g in grad)
        self.cell_centroids = p[c].mean(axis=1)

        self._neighbors = self._averaging = self._cell_boxes = None
        self._min_angle = self._hash = None

    # -- derived structure -------------------------------------------------

    def vertex_neighbors(self):
        """CSR vertex adjacency ``(indptr, indices)``: the sorted neighbors
        of vertex i are ``indices[indptr[i]:indptr[i + 1]]``."""
        if self._neighbors is None:
            n, m, c = self.n_vertices, self.n_cells, self.cells
            # one int64 key i * N + j per directed cell edge (i, j), sorted
            keys = np.empty(6 * m, dtype=np.int64)
            for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0),
                                        (1, 0), (2, 1), (0, 2))):
                np.multiply(c[:, i], n, out=keys[k * m:(k + 1) * m],
                            dtype=np.int64)
                keys[k * m:(k + 1) * m] += c[:, j]
            keys.sort()
            keys = keys[_group_starts(keys)]
            self._neighbors = (_csr_indptr(keys // n, n),
                               (keys % n).astype(np.int32))
        return self._neighbors

    def vertex_average(self, cell_values):
        """Area-weighted average of a per-cell (M, k) array over the cells
        around each vertex, shape (N, k).

        The sparse sum operator is built on first use; each row sums its
        cells in the order local corner 0, 1, 2, then cell index.
        """
        if self._averaging is None:
            n, m = self.n_vertices, self.n_cells
            rows = self.cells.T.ravel()
            total = np.bincount(rows, weights=np.tile(self.cell_areas, 3),
                                minlength=n)
            # the flat index of a corner-major entry is corner * M + cell
            cell = np.argsort(rows, kind="stable")
            cell %= m
            cell = cell.astype(np.int32)
            op = Csr(self.cell_areas[cell], cell, _csr_indptr(rows, n),
                     (n, m))
            self._averaging = op, total
        op, total = self._averaging
        return (op @ cell_values) / total[:, None]

    def cell_gradients(self, values):
        """Constant P1 gradient per cell for a vertex field, shape (M, 2)."""
        values = np.asarray(values, dtype=float)
        grads = np.empty((2, self.n_cells))
        for component, op in zip(grads, self.gradient):
            component[:] = op @ values
        return grads.T

    def min_angle_deg(self):
        if self._min_angle is None:
            self._min_angle = float(
                _cell_min_angles_deg(self.vertices, self.cells).min())
        return self._min_angle

    def mesh_hash(self):
        """First 16 hex digits of the SHA-256 of the vertices and of the
        cells as int64."""
        if self._hash is None:
            hsh = hashlib.sha256()
            hsh.update(self.vertices.tobytes())
            hsh.update(self.cells.astype(np.int64).tobytes())
            self._hash = hsh.hexdigest()[:16]
        return self._hash

    # -- point location and interpolation -----------------------------------

    def locate(self, points):
        """Cell index containing each query point (-1 if outside).

        A point is inside a cell when its barycentric coordinates there are
        all >= -1e-9; of the cells holding it, the one with the nearest
        centroid is returned.  The candidates are the cells whose bounding
        box, padded by 1e-6 h (the tolerance reaches at most 2e-9 h past a
        cell), holds the point, found through a bucket grid of the boxes'
        lower corners, side h/2, built on first use; points are located
        1024 at a time.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._cell_boxes is None:
            corners = self.vertices[self.cells.T]
            pad = 1e-6 * self.h
            boxes = np.hstack([corners.min(axis=0) - pad,
                               corners.max(axis=0) + pad])
            half = 0.5 * (boxes[:, 2:] - boxes[:, :2]).max()
            self._cell_boxes = _BucketGrid(boxes[:, :2], 0.5 * self.h), \
                boxes, half
        grid, boxes, half = self._cell_boxes
        out = np.full(len(pts), -1, dtype=np.int64)
        for start in range(0, len(pts), _CHUNK):
            q = pts[start:start + _CHUNK]
            # the lower corners within the largest box side below and left
            qi, cells = grid.pairs(q - half, half)
            p, box = q[qi], boxes[cells]
            held = (box[:, 0] <= p[:, 0]) & (box[:, 1] <= p[:, 1]) \
                & (p[:, 0] <= box[:, 2]) & (p[:, 1] <= box[:, 3])
            qi, cells = qi[held], cells[held]
            lam = self._barycentric(q[qi], cells)
            held = np.minimum(lam[:, 0], np.minimum(lam[:, 1], lam[:, 2])) \
                >= -1e-9
            qi, cells = qi[held], cells[held]
            dist = ((q[qi] - self.cell_centroids[cells]) ** 2).sum(axis=1)
            order = np.lexsort((dist, qi))
            first = order[_group_starts(qi[order])]
            out[start + qi[first]] = cells[first]
        return out

    def _barycentric(self, pts, cells):
        p0, p1, p2 = self.vertices[self.cells[cells].T]
        v0, v1, d = p1 - p0, p2 - p0, pts - p0
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
    Delaunay cells, the band between lattice and loop gift-wrapped, under
    the 20 degree minimum-angle bound.  Deterministic: identical inputs give
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


def mesh_from_loop(loop_pts, interior_pts, lattice):
    """Delaunay mesh of a convex region from its boundary loop and fill points.

    ``loop_pts`` must trace the boundary counterclockwise, and ``lattice``
    holds the fill's (row, column) on its equilateral lattice: the lattice
    cells are built directly and the band between them and the loop is
    wrapped (:func:`_band_cells`).  A minimum cell angle below 20 degrees
    raises :class:`MeshQualityError`.  The lattice and the wrap emit their
    cells in different vertex orders, so each cell is rotated to start at
    its smallest vertex, counterclockwise: the mesh depends on the cell set
    only.
    """
    n_b = len(loop_pts)
    points = np.vstack([loop_pts, interior_pts]) if len(interior_pts) \
        else np.asarray(loop_pts, dtype=float)

    cells = _band_cells(points, n_b, lattice)
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
    # the quality gate's minimum: a cell's angles do not depend on the
    # corner it starts at
    mesh._min_angle = float(angles[worst])
    return mesh


def _band_cells(points, n_b, lattice):
    """Delaunay cells of a loop (``points[:n_b]``) plus fill points at the
    (row, column) ``lattice`` of an equilateral lattice, column in half
    spacings.  A lattice triangle's circumcircle (radius a / sqrt 3) holds no
    other lattice point, so it is a cell iff it holds no loop point; one
    within 1e-9 a of a loop point is left to the wrap.  The other cells are
    wrapped inward from the loop edges and outward from the open edges of
    the kept lattice cells (:func:`_wrap_cells`), their vertices the points
    not surrounded by six lattice cells.  Raises :class:`MeshQualityError`
    for a fill off the lattice, a cell count other than 2N - n_b - 2, or
    cells that do not tile the loop."""
    n = len(points)
    loop = np.arange(n_b)
    front = np.column_stack([loop, (loop + 1) % n_b])
    a = _lengths(points, front).max()
    tri = np.zeros((0, 3), dtype=np.int64)
    if len(lattice):
        row, col = (np.asarray(lattice) - np.min(lattice, axis=0)).T
        # padded: row index -1 reads the last row, which holds no point
        grid = np.full((row.max() + 2, col.max() + 3), -1)
        grid[row, col] = np.arange(n_b, n)
        # up (r, c) (r, c+2) (r+1, c+1), down (r, c) (r-1, c+1) (r, c+2)
        tri = grid[row[:, None, None] + [[0, 0, 1], [0, -1, 0]],
                   col[:, None, None] + [[0, 2, 1], [0, 1, 2]]].reshape(-1, 3)
        tri = tri[np.all(tri >= 0, axis=1)]
    if len(tri):
        edges = _lengths(points, tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))
        a = edges.max()
        if a - edges.min() > 1e-9 * a:
            raise MeshQualityError("fill points off their equilateral lattice")
        tri = tri[_circle_gaps(points, tri, points[:n_b]) > 1e-9 * a]
    inner = np.bincount(tri.ravel(), minlength=n) == 6
    # an edge at a surrounded point has lattice cells on both sides; the
    # others are open where their reverse is no lattice cell's edge
    pairs = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = pairs[~inner[pairs].any(axis=1)]
    open_ = ~np.isin(pairs[:, 1] * n + pairs[:, 0],
                     pairs[:, 0] * n + pairs[:, 1])
    front = np.vstack([front, pairs[open_][:, ::-1]])
    reach = 2.0 * max(a, _lengths(points, front).max())
    cells = np.vstack([tri, _wrap_cells(points, front, np.flatnonzero(~inner),
                                        reach, 1e-9 * a)])
    loop_area = _loop_area(points, n_b)
    if len(cells) != 2 * n - n_b - 2 or abs(
            _signed_areas(points, cells).sum() - loop_area) > 1e-9 * loop_area:
        raise MeshQualityError("triangulation does not tile the boundary "
                               "polygon")
    return cells


def _wrap_cells(points, front, band, reach, tol):
    """Delaunay cells of ``points`` between the directed Delaunay edges
    ``front`` ((K, 2) vertex indices), each with the unmeshed side on its
    left, gift-wrapped in rounds (DeWall, Cignoni et al. 1998): each front
    edge takes the point of ``band`` on its left whose circle through the
    edge has the smallest centre offset to the left, candidates within
    ``tol`` of it tied (:func:`_tie_break`); the new cells' edges not shared
    with another new cell or the front, reversed, are the next front.
    ``band`` must hold every vertex of those cells.  A round with an edge
    whose box searched, ``reach`` around its midpoint, holds no candidate or
    not all of its circle is redone at twice the reach; once the reach spans
    the band, an edge with no point on its left raises
    :class:`MeshQualityError` (a flat loop)."""
    n = len(points)
    span = np.ptp(points[band], axis=0).max()
    grid = _BucketGrid(points[band], reach)
    front = front[:, 0] * n + front[:, 1]
    out, total = [], 0
    while len(front):
        tail, head = np.divmod(front, n)
        mid = 0.5 * (points[tail] + points[head])
        d = points[head] - points[tail]
        dd = (d * d).sum(axis=1)
        qi, p = grid.pairs(mid, reach)
        p = band[p]
        rel = points[p] - mid[qi]
        cross = d[qi, 0] * rel[:, 1] - d[qi, 1] * rel[:, 0]
        left = cross > 1e-12 * dd[qi]
        qi, p, rel, cross = qi[left], p[left], rel[left], cross[left]
        # circumcentre offset from the midpoint along the unit left normal
        offset = ((rel * rel).sum(axis=1) - 0.25 * dd[qi]) \
            * np.sqrt(dd[qi]) / (2.0 * cross)
        order = np.lexsort((offset, qi))
        qi, p, offset = qi[order], p[order], offset[order]
        best = np.flatnonzero(_group_starts(qi))
        found = len(best) == len(front)
        if found:
            t = offset[best]
            spread = np.abs(t) * np.abs(d).max(axis=1) / np.sqrt(dd)
            found = np.all(spread + np.sqrt(0.25 * dd + t * t) <= reach)
        if not found and reach < span:
            reach *= 2.0
            grid = _BucketGrid(points[band], reach)
            continue
        if len(best) < len(front):
            raise MeshQualityError("flat loop: a mesh edge has no point on "
                                   "its inner side")
        apex = p[best]
        # a candidate within tol of its edge's best is tied with it
        tied = np.flatnonzero(offset <= offset[best][qi] + tol)
        for j in tied[tied != best[qi[tied]]]:
            k = qi[j]
            apex[k] = _tie_break(points, tail[k], head[k], apex[k], p[j])
        cells = np.column_stack([tail, head, apex])
        first = np.argmin(cells, axis=1)[:, None]
        cells = np.unique(np.take_along_axis(cells, (first + np.arange(3)) % 3,
                                             axis=1), axis=0)
        edges = cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key, rev = edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]
        front = rev[~np.isin(key, front) & ~np.isin(rev, key)]
        out.append(cells)
        total += len(cells)
        if total > 2 * n:
            raise MeshQualityError("triangulation does not tile the boundary "
                                   "polygon")
    return np.vstack(out)


def _tie_break(points, t, h, c, d):
    """The apex of the front edge (t, h) among ``c`` and ``d``, both on its
    left and cocircular with it, by Simulation of Simplicity (Edelsbrunner
    & Muecke 1990) on the lifted in-circle test: point i lifts to
    x^2 + y^2 + eps_i, eps_i shrinking with i, so the lowest index of the
    four decides.  A lifted d lies outside the circle through t, h, c; a
    lifted c takes d into it; a lifted t (h) favours the candidate later
    (earlier) counterclockwise from h."""
    m = min(t, h, c, d)
    if m in (c, d):
        return c if m == d else d
    u, v = points[c] - points[h], points[d] - points[h]
    later, earlier = (d, c) if u[0] * v[1] - u[1] * v[0] > 0 else (c, d)
    return later if m == t else earlier


def _lengths(points, pairs):
    """Length of each (i, j) segment of ``pairs``."""
    return np.linalg.norm(points[pairs[:, 1]] - points[pairs[:, 0]], axis=1)


def _csr_indptr(rows, n):
    """int32 CSR row pointers of ``n`` rows holding one entry per item of
    ``rows``, the row of that entry."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _group_starts(sorted_keys):
    """True at the first entry of each run of equal ``sorted_keys``."""
    starts = np.ones(len(sorted_keys), dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return starts


def _circle_gaps(points, cells, others):
    """Distance from each cell's circumcircle to the nearest of ``others``,
    negative inside; farther than the largest radius reads as some larger
    positive gap."""
    p0 = points[cells[:, 0]]
    b, c = points[cells[:, 1]] - p0, points[cells[:, 2]] - p0
    bb, cc = np.einsum("mi,mi->m", b, b), np.einsum("mi,mi->m", c, c)
    centre = np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                              b[:, 0] * cc - c[:, 0] * bb]) \
        / (2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))[:, None]
    radius = np.hypot(centre[:, 0], centre[:, 1])
    return _nearest_distances(others, p0 + centre, 2.0 * radius.max()) - radius


class _BucketGrid:
    """Points filed under square buckets of side ``size``, to find the
    points near query points without a tree; ``size`` doubles until there
    are at most 4 N + 64 buckets for N points."""

    def __init__(self, points, size):
        self.origin = points.min(axis=0) if len(points) else np.zeros(2)
        span = points.max(axis=0) - self.origin if len(points) else np.zeros(2)
        if not (size > 0 and np.all(np.isfinite(span))):
            raise InvalidParameterError(
                "a bucket grid needs finite points and a positive side")
        while np.prod(np.floor(span / size) + 1) > 4 * len(points) + 64:
            size *= 2.0
        self.size = size
        bucket = self._bucket(points)
        self.shape = bucket.max(axis=0, initial=0) + 1
        key = bucket[:, 0] * self.shape[1] + bucket[:, 1]
        self.order = np.argsort(key, kind="stable")
        self.starts = np.searchsorted(key[self.order],
                                      np.arange(np.prod(self.shape) + 1))

    def _bucket(self, pts):
        return np.floor((pts - self.origin) / self.size).astype(np.int64)

    def pairs(self, queries, reach):
        """(query, point) index pairs, grouped by ascending query: each
        point within ``reach`` of a query in both coordinates, and others in
        the buckets searched."""
        j0 = np.maximum(self._bucket(queries - reach), 0)
        j1 = np.minimum(self._bucket(queries + reach), self.shape - 1)
        ny = self.shape[1]
        ranges = []
        for k in range(int((j1[:, 0] - j0[:, 0]).max(initial=-1)) + 1):
            col = j0[:, 0] + k
            qi = np.flatnonzero((col <= j1[:, 0]) & (j0[:, 1] <= j1[:, 1]))
            base = col[qi] * ny
            ranges.append((qi, self.starts[base + j0[qi, 1]],
                           self.starts[base + j1[qi, 1] + 1]))
        qi, first, last = (np.concatenate(r) for r in zip(*ranges)) \
            if ranges else (np.zeros(0, np.int64),) * 3
        order = np.argsort(qi, kind="stable")
        qi, first, count = qi[order], first[order], (last - first)[order]
        pos = np.arange(count.sum()) + np.repeat(
            first - (np.cumsum(count) - count), count)
        return np.repeat(qi, count), self.order[pos]


def _nearest_distances(points, queries, reach):
    """Distance from each query to the nearest of ``points``: exact where
    that is at most ``reach``, else some larger value or inf."""
    grid = _BucketGrid(points, reach)
    out = np.full(len(queries), np.inf)
    for start in range(0, len(queries), _CHUNK):
        q = queries[start:start + _CHUNK]
        qi, j = grid.pairs(q, reach)
        if len(qi):
            diff = q[qi] - points[j]
            dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
            starts = np.flatnonzero(_group_starts(qi))
            out[start + qi[starts]] = np.minimum.reduceat(dist, starts)
    return out


def _signed_areas(points, cells):
    d1, d2 = (points[cells[:, k]] - points[cells[:, 0]] for k in (1, 2))
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _loop_area(points, n_b):
    x, y = points[:n_b].T
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


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
    far = _nearest_distances(pts, cand, clearance) >= clearance
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
