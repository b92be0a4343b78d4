"""Closed-form reference solutions the tests compare discrete solutions
against, a non-convex domain the paper's hypothesis excludes, and
independent references for the mesh operators and the linear solve."""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay, cKDTree

from pmclab.errors import InvalidParameterError
from pmclab.geometry import TriMesh, submesh


class RadialSolution:
    """Closed-form radial solution on a disk or ball of radius R.

    For the homotopy operator with parameter t the radial profile solving
    the interior equation in dimension n is

        v'(r) = (H r / n) / sqrt(1 - (t H r / n)^2),
        v(r)  = v0 + (n / (t^2 H)) (1 - sqrt(1 - t^2 H^2 r^2 / n^2)),

    degenerating to the paraboloid v0 + H r^2 / (2n) at t = 0.  Robin data
    fixes v0 through v(R) = -v'(R)/alpha; Neumann profiles are returned with
    v0 = 0 and must be compared after mean normalization.  Neumann data is
    matched by this profile exactly when H = n c / (R sqrt(1 + t^2 c^2)).
    """

    def __init__(self, spec, R=1.0, n=None):
        self.spec = spec
        self.R = float(R)
        self.n = int(n if n is not None else spec.n_dim)
        q = spec.t * spec.H * self.R / self.n
        if q >= 1.0:
            raise InvalidParameterError(
                f"no radial graph solution: t*H*R/n = {q} >= 1")
        if spec.bc == "robin":
            self.v0 = -self.slope(self.R) / spec.alpha - self._bump(self.R)
        else:
            self.v0 = 0.0

    def _bump(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        if t < 1e-14:
            return H * r ** 2 / (2.0 * n)
        return (n / (t * t * H)) * (1.0 - np.sqrt(1.0 - (t * H * r / n) ** 2))

    def slope(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        return (H * r / n) / np.sqrt(1.0 - (t * H * r / n) ** 2)

    def __call__(self, r):
        return self.v0 + self._bump(r)

    def at_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self(np.linalg.norm(pts, axis=-1))


def radial_disk_oracle(spec, R=1.0):
    """Radial reference solution on the disk of radius R (planar case)."""
    return RadialSolution(spec, R=R, n=2)


def radial_ball_oracle(spec, R=1.0, n=None):
    """Closed-form radial solution on the ball of radius R in dimension n."""
    return RadialSolution(spec, R=R, n=n if n is not None else spec.n_dim)


def dumbbell_loop(D, w, spacing, R=1.0):
    """Counterclockwise boundary of the union of the disks of radius ``R``
    at (+-D, 0) and the channel |x1| <= D, |x2| < w, sampled at most
    ``spacing`` apart.  With w = R it is the convex stadium."""
    beta = math.asin(w / R)
    xj = D - R * math.cos(beta)          # where the channel meets a disk
    arc = 2.0 * (math.pi - beta)
    out = []
    # the right disk from its lower junction, the upper channel edge, the
    # left disk from its upper junction, the lower channel edge
    for cx, start, y in ((D, beta - math.pi, w), (-D, beta, -w)):
        t = start + np.linspace(0.0, arc, math.ceil(R * arc / spacing),
                                endpoint=False)
        out.append(np.column_stack([cx + R * np.cos(t), R * np.sin(t)]))
        n = math.ceil(2.0 * xj / spacing)
        x = math.copysign(xj, cx) * (1.0 - 2.0 * np.arange(n) / n)
        out.append(np.column_stack([x, np.full(n, y)]))
    return np.vstack(out)


def dumbbell_mesh(D, w, h):
    """Mesh of the dumbbell of :func:`dumbbell_loop` (R = 1): its boundary
    at 0.85 h, an equilateral lattice of spacing 0.9 h at least 0.45 h from
    it, and the Delaunay cells whose centroid lies inside."""
    def inside(p):
        x, y = np.abs(p[:, 0]), np.abs(p[:, 1])
        return (np.hypot(x - D, y) < 1.0) | ((x <= D) & (y < w))

    loop = dumbbell_loop(D, w, 0.85 * h)
    a = 0.9 * h
    ys = np.arange(-1.0, 1.0, a * math.sqrt(3.0) / 2.0)
    xs = np.arange(-D - 1.0, D + 1.0, a) \
        + 0.5 * a * (np.arange(len(ys)) % 2)[:, None]
    fill = np.stack(np.broadcast_arrays(xs, ys[:, None]), -1).reshape(-1, 2)
    fill = fill[inside(fill) & (cKDTree(loop).query(fill)[0] >= 0.5 * a)]
    points = np.vstack([loop, fill])
    full = TriMesh(points, delaunay_cells(points), np.empty((0, 2), dtype=int))
    return submesh(full, inside(full.cell_centroids))[0]


def delaunay_cells(points):
    """Delaunay cells of ``points`` by qhull, counterclockwise, without the
    exactly degenerate ones that collinear loop runs make qhull emit: the
    reference for the mesher."""
    tri = Delaunay(points)
    assert not len(tri.coplanar)
    cells = tri.simplices
    d1, d2 = (points[cells[:, k]] - points[cells[:, 0]] for k in (1, 2))
    areas = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    scale = float(np.ptp(points, axis=0).max()) ** 2
    keep = np.abs(areas) > 1e-12 * scale
    cells, flip = cells[keep], areas[keep] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    return cells


def _circumcircles(points, cells):
    p0 = points[cells[:, 0]]
    b, c = points[cells[:, 1]] - p0, points[cells[:, 2]] - p0
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    centre = np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                              b[:, 0] * cc - c[:, 0] * bb]) \
        / (2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))[:, None]
    return p0 + centre, np.hypot(centre[:, 0], centre[:, 1])


def assert_delaunay(points, n_b, cells):
    """Check that ``cells`` are a Delaunay triangulation of ``points``
    whose first ``n_b`` trace the boundary loop: 2N - n_b - 2 cells,
    counterclockwise, tiling the loop (every directed edge once, the
    unpaired ones the loop edges, the areas summing to the loop's), each
    circumcircle holding no point within 1e-9 a of it, a the longest edge,
    by brute force.  Returns whether qhull's cells have a cocircular tie;
    where they have none, ``cells`` must be the same set."""
    n = len(points)
    cells = np.asarray(cells)
    assert len(cells) == 2 * n - n_b - 2
    d1, d2 = (points[cells[:, k]] - points[cells[:, 0]] for k in (1, 2))
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(areas > 0)
    x, y = points[:n_b].T
    loop_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert abs(areas.sum() - loop_area) <= 1e-9 * loop_area
    edges = set(map(tuple, cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
                    .tolist()))
    assert len(edges) == 3 * len(cells)
    loop = {(i, (i + 1) % n_b) for i in range(n_b)}
    assert {e for e in edges if e[::-1] not in edges} == loop
    a = np.linalg.norm(points[cells] - points[np.roll(cells, 1, axis=1)],
                       axis=2).max()
    tree = cKDTree(points)
    centre, radius = _circumcircles(points, cells)
    assert not tree.query_ball_point(centre, radius - 1e-9 * a,
                                     return_length=True).any()
    reference = delaunay_cells(points)
    centre, radius = _circumcircles(points, reference)
    tie = bool((tree.query_ball_point(centre, radius + 1e-9 * a,
                                      return_length=True) > 3).any())
    if not tie:
        assert set(map(frozenset, cells.tolist())) \
            == set(map(frozenset, reference.tolist()))
    return tie


def basis_gradients_reference(mesh):
    """P1 basis gradients (M, 3, 2) from ``np.linalg.inv`` of each edge
    matrix (edge vectors as rows): entry [m, k] is the gradient on cell m
    of the hat function of vertex ``cells[m, k]``."""
    p, c = mesh.vertices, mesh.cells
    ginv = np.linalg.inv(np.stack([p[c[:, 1]] - p[c[:, 0]],
                                   p[c[:, 2]] - p[c[:, 0]]], axis=1))
    return np.stack([-ginv[:, :, 0] - ginv[:, :, 1],
                     ginv[:, :, 0], ginv[:, :, 1]], axis=1)


def cell_gradients_reference(mesh, values):
    """Constant P1 gradient per cell (M, 2) by the difference formula
    grad phi_1 (v1 - v0) + grad phi_2 (v2 - v0) on the basis gradients of
    :func:`basis_gradients_reference`."""
    gphi = basis_gradients_reference(mesh)
    v, c = np.asarray(values, dtype=float), mesh.cells
    return (gphi[:, 1] * (v[c[:, 1]] - v[c[:, 0]])[:, None]
            + gphi[:, 2] * (v[c[:, 2]] - v[c[:, 0]])[:, None])


def cells_spanning_origin_reference(gvertex, cells):
    """The census candidate test on the gathered (M, 3, 2) corner
    gradients: True per cell when the convex hull of its 3 vertex gradients
    covers 0, up to 1e-14 relative to the squared largest gradient
    component."""
    gtri = np.asarray(gvertex)[cells]
    a, b, c = gtri[:, 0], gtri[:, 1], gtri[:, 2]

    def cross(p, q):
        return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    d1 = cross(b - a, -a)
    d2 = cross(c - b, -b)
    d3 = cross(a - c, -c)
    tol = 1e-14 * (np.max(np.abs(gtri), axis=(1, 2)) ** 2 + 1e-14)
    pos = (d1 >= -tol) & (d2 >= -tol) & (d3 >= -tol)
    neg = (d1 <= tol) & (d2 <= tol) & (d3 <= tol)
    return pos | neg


def scipy_csr(A):
    """A CSR matrix (a ``pmclab.sparse.Csr``) as a ``scipy.sparse``
    csr_matrix on the same arrays, for SciPy's slicing, arithmetic and
    ``toarray``."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def direct_solve_reference(A, b):
    """x of A x = b by one direct sparse solve (``spla.spsolve``), sharing
    no code with the solver's GMRES."""
    return spla.spsolve(scipy_csr(A).tocsc(), np.asarray(b, dtype=float))
