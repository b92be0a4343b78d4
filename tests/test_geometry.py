import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree
from scipy.special import ellipe, ellipeinc

import pmclab
from pmclab import axisym, geometry
from pmclab.axisym import meridian_mesh
from pmclab.errors import InvalidParameterError, MeshQualityError
from pmclab.geometry import (_INTERIOR_CLEARANCE, _LATTICE_SPACING_FACTOR,
                             _TABLE_SIZE, _band_cells, _BucketGrid,
                             _ellipe_inc, _hex_lattice,
                             _row_intervals, TriMesh, make_disk,
                             make_ellipse, make_rounded_polygon,
                             mesh_from_loop, triangulate)

from oracles import (assert_delaunay, basis_gradients_reference,
                     cell_gradients_reference, delaunay_cells)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
# a run on random draws (the stress profile of conftest) takes ten times
# the examples of the fixed tier-1 draws in the meshing properties
EXAMPLES = 1 if settings.default.derandomize else 10


def inside(domain, p):
    """The interior test of the mesh lattice: strictly within the chord of
    the boundary-table polygon on the point's row, shape ``p.shape[:-1]``."""
    p = np.asarray(p, dtype=float)
    x, y = p.reshape(-1, 2).T
    left, right = _row_intervals(domain._table_pts, y)
    return ((left < x) & (x < right)).reshape(p.shape[:-1])


def turning(domain, n):
    """Angle increments of the outward normal between ``n`` equally spaced
    arc lengths around the boundary, the last closing the loop."""
    s = np.linspace(0.0, domain.length, n + 1)
    nx, ny = domain.normal(s).T
    return np.diff(np.unwrap(np.arctan2(ny, nx)))


def polyline_length(domain, n=200000):
    s = np.linspace(0.0, domain.length, n + 1)
    pts = domain.position(s)
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def shoelace_area(domain, n=200000):
    s = np.linspace(0.0, domain.length, n, endpoint=False)
    pts = domain.position(s)
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestDisk:
    def test_circle_formulas(self):
        d = make_disk(1.0)
        assert d.length == pytest.approx(2 * math.pi, abs=1e-12)
        assert d.area == pytest.approx(math.pi, abs=1e-12)
        s = np.linspace(0, d.length, 1000, endpoint=False)
        assert np.allclose(d.normal(s), d.position(s), atol=1e-12)

    def test_curvature_scales_inverse_radius(self):
        # the normal turns at the curvature 1/R per unit arc length
        d = make_disk(2.0)
        assert np.allclose(turning(d, 1000), 0.5 * d.length / 1000, atol=1e-12)

    def test_closure(self):
        d = make_disk(1.0)
        gap = np.linalg.norm(d.position(0.0) - d.position(d.length))
        assert gap <= 1e-10 * d.length

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidParameterError):
            make_disk(0.0)
        with pytest.raises(InvalidParameterError):
            make_disk(-1.0)


class TestEllipse:
    def test_degenerates_to_disk(self):
        e = make_ellipse(1.0, 1.0)
        d = make_disk(1.0)
        s = np.linspace(0, d.length, 64, endpoint=False)
        # same circle, possibly different parameter origin: compare radii
        assert np.allclose(np.linalg.norm(e.position(s), axis=1), 1.0,
                           atol=1e-10)
        assert e.length == pytest.approx(d.length, abs=1e-10)

    def test_curvature_at_major_vertex(self):
        e = make_ellipse(1.3, 0.7)
        assert np.array_equal(e.position(0.0), [1.3, 0.0])
        assert np.array_equal(e.normal(0.0), [1.0, 0.0])
        # the normal turns at the closed form a/b^2 at (a, 0)
        ds = 1e-5
        (_, y0), (_, y1) = e.normal(np.array([-ds, ds]))
        assert (math.asin(y1) - math.asin(y0)) / (2 * ds) == pytest.approx(
            1.3 / 0.7 ** 2, rel=1e-6)

    def test_area(self):
        e = make_ellipse(1.3, 0.7)
        assert e.area == pytest.approx(math.pi * 1.3 * 0.7, abs=1e-12)
        assert shoelace_area(e) == pytest.approx(e.area, abs=1e-6)

    def test_length_against_polyline_oracle(self):
        e = make_ellipse(1.3, 0.7)
        assert e.length == pytest.approx(polyline_length(e), abs=1e-6)

    def test_rejects_bad_axes(self):
        with pytest.raises(InvalidParameterError):
            make_ellipse(1.0, 0.0)

    @pytest.mark.parametrize("ratio", np.geomspace(0.05, 2.0, 9).tolist())
    def test_incomplete_integral_matches_scipy(self, ratio):
        """E(theta | 1 - a^2/b^2) at b/a = ``ratio``, over two turns of
        theta, against scipy.special.ellipeinc."""
        m = 1.0 - ratio ** -2
        theta = np.linspace(-math.pi, 3.0 * math.pi, 4001)
        ref = ellipeinc(theta, m)
        assert np.all(np.abs(_ellipe_inc(theta, m) - ref)
                      <= 4e-15 * np.abs(ref))

    @pytest.mark.parametrize("a, b", [(1.3, 0.7), (2.0, 0.5), (0.7, 1.2),
                                      (1.0, 0.01)])
    def test_arc_length_parametrized(self, a, b):
        # s against the quadrature of the speed up to the point's angle
        e = make_ellipse(a, b)
        assert e.length == pytest.approx(4.0 * max(a, b) * ellipe(
            1.0 - (min(a, b) / max(a, b)) ** 2), abs=1e-13)
        s = np.linspace(0.0, e.length, 41)[1:-1]
        x, y = e.position(s).T
        theta = np.unwrap(np.arctan2(y / b, x / a))
        theta[theta < 0] += 2.0 * math.pi
        speed = lambda t: math.hypot(a * math.sin(t), b * math.cos(t))
        for si, ti in zip(s, theta):
            ref, _ = quad(speed, 0.0, ti, epsabs=1e-13, epsrel=1e-13,
                          limit=200)
            assert abs(ref - si) <= 1e-12


class TestRoundedPolygon:
    def test_square_length(self):
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(SQUARE, 0.5)
        assert d.length == pytest.approx(4.0 + math.pi, abs=1e-9)

    def test_square_area_against_shoelace_oracle(self):
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(SQUARE, 0.5)
        assert d.area == pytest.approx(3.0 + math.pi / 4.0, abs=1e-12)
        assert shoelace_area(d) == pytest.approx(d.area, abs=1e-6)

    def test_triangle_turning_carried_by_arcs(self):
        tri = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]]
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(tri, 0.3)
        # the normal turns by 2 pi, never backwards, and not at all along
        # the straight runs: the edges less a tangent offset r cot(phi / 2)
        # at both ends of each, phi the interior angle
        turn = turning(d, 400000)
        assert np.all(turn >= 0.0)
        assert turn.sum() == pytest.approx(2 * math.pi, abs=1e-12)
        v = np.array(tri)
        e = np.roll(v, -1, axis=0) - v
        elen = np.linalg.norm(e, axis=1)
        cos_phi = -np.einsum("ki,ki->k", np.roll(e, 1, axis=0), e) / (
            np.roll(elen, 1) * elen)
        straight = elen.sum() - 2 * np.sum(0.3 / np.tan(np.arccos(cos_phi) / 2))
        assert np.mean(turn == 0.0) == pytest.approx(straight / d.length,
                                                     abs=1e-4)
        assert straight / d.length == pytest.approx(0.614, abs=1e-3)

    def test_rejects_nonconvex(self):
        bad = [[0, 0], [2, 0], [1, 0.5], [1, 2]]
        with pytest.raises(InvalidParameterError):
            make_rounded_polygon(bad, 0.1)

    def test_rejects_oversized_radius(self):
        with pytest.raises(InvalidParameterError):
            make_rounded_polygon(SQUARE, 1.1)


class TestContains:
    def test_disk_points(self):
        d = make_disk(1.0)
        assert inside(d, np.array([0.0, 0.0]))
        assert not inside(d, np.array([2.0, 0.0]))

    def test_ellipse_axis_points(self):
        e = make_ellipse(1.3, 0.7)
        assert inside(e, np.array([1.29, 0.0]))
        assert not inside(e, np.array([0.0, 0.71]))

    @given(x=st.floats(-2, 2), y=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_radius_test_on_disk(self, x, y):
        # the table polygon's chords sag 1 - cos(pi / 2048) = 1.2e-6 inside
        # the unit circle
        d = make_disk(1.0)
        r = math.hypot(x, y)
        if abs(r - 1.0) > 2e-6:
            assert bool(inside(d, np.array([x, y]))) == (r < 1.0)


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestExactBoundary:
    @pytest.mark.parametrize("factory", [
        lambda: make_disk(1.0),
        lambda: make_ellipse(1.3, 0.7),
        lambda: make_ellipse(2.0, 0.3),
        lambda: make_rounded_polygon(SQUARE, 0.5),
    ], ids=["disk", "ellipse", "thin-ellipse", "rounded-square"])
    def test_shapes_and_wrapping(self, factory, rng):
        d = factory()
        s = rng.uniform(-d.length, 2.0 * d.length, 20000).reshape(4, -1)
        for fn in (d.position, d.normal):
            assert fn(0.3).shape == (2,)
            assert fn(s).shape == (4, 5000, 2)
            assert np.allclose(fn(s), fn(np.mod(s, d.length)), atol=1e-12)

    @pytest.mark.filterwarnings("ignore:rounded polygon")
    @pytest.mark.parametrize("factory, h, distance", [
        (lambda: make_disk(1.0), 0.0125,
         lambda p: np.hypot(*p.T) - 1.0),
        (lambda: make_ellipse(1.3, 0.7), 0.0125,
         lambda p: ellipse_distance(p, 1.3, 0.7)),
        (lambda: make_ellipse(1.0, 0.1), 0.00625,
         lambda p: ellipse_distance(p, 1.0, 0.1)),
        (lambda: make_rounded_polygon(SQUARE, 0.5), 0.0125,
         lambda p: np.linalg.norm(np.maximum(np.abs(p) - 0.5, 0.0), axis=1)
         + np.minimum((np.abs(p) - 0.5).max(axis=1), 0.0) - 0.5),
        (lambda: make_disk(1.0), 0.05,
         lambda p: np.hypot(*p.T) - 1.0),
        (lambda: make_ellipse(1.3, 0.7), 0.05,
         lambda p: ellipse_distance(p, 1.3, 0.7)),
        (lambda: make_ellipse(1.0, 0.1), 0.05,
         lambda p: ellipse_distance(p, 1.0, 0.1)),
        (lambda: make_rounded_polygon(SQUARE, 0.5), 0.1,
         lambda p: np.linalg.norm(np.maximum(np.abs(p) - 0.5, 0.0), axis=1)
         + np.minimum((np.abs(p) - 0.5).max(axis=1), 0.0) - 0.5),
    ], ids=["disk", "ellipse", "thin-ellipse", "rounded-square", "disk-coarse",
            "ellipse-coarse", "thin-ellipse-coarse", "rounded-square-coarse"])
    def test_fine_mesh_boundary_on_exact_curve(self, factory, h, distance):
        # fine and coarse meshes alike (more and fewer than 512 boundary
        # samples) sample the exact curve at n equal arc lengths
        d = factory()
        m = triangulate(d, h)
        n = len(m.boundary_edges)
        p = m.vertices[m.boundary_edges[:, 0]]
        assert np.max(np.abs(distance(p))) <= 1e-13
        assert np.max(np.abs(p - d.position(np.arange(n) * (d.length / n)))) \
            <= 1e-13

    def test_coarse_disk_boundary_equal_angles(self, disk_mesh_005):
        # equal arc lengths read off the points alone: 148 equal angles
        p = disk_mesh_005.vertices[disk_mesh_005.boundary_edges[:, 0]]
        gaps = np.diff(np.unwrap(np.arctan2(p[:, 1], p[:, 0])))
        assert len(p) == 148
        assert np.max(np.abs(gaps - 2.0 * math.pi / len(p))) <= 1e-13


def ellipse_distance(p, a, b):
    """First-order distance of points from the ellipse x^2/a^2 + y^2/b^2 = 1:
    the implicit function over its gradient norm."""
    x, y = p.T
    f = (x / a) ** 2 + (y / b) ** 2 - 1.0
    return f / np.hypot(2 * x / a ** 2, 2 * y / b ** 2)


class TestConvexityInvariants:
    @pytest.mark.parametrize("factory", [
        lambda: make_disk(1.0),
        lambda: make_ellipse(1.3, 0.7),
    ])
    def test_positive_curvature_sampled(self, factory):
        # the normal turns forward between any two samples, 2 pi in all
        turn = turning(factory(), 1000)
        assert np.all(turn > 0)
        assert turn.sum() == pytest.approx(2 * math.pi, abs=1e-12)

    def test_centroid_inside_every_tangent(self):
        # both are centred at the origin, their centroid
        for d in (make_disk(1.0), make_ellipse(1.3, 0.7)):
            s = np.linspace(0, d.length, 500, endpoint=False)
            side = np.einsum("ki,ki->k", -d.position(s), d.normal(s))
            assert np.all(side < 0)

    def test_outward_normal_orientation(self):
        d = make_ellipse(1.3, 0.7)
        s = np.linspace(0, d.length, 100, endpoint=False)
        # moving a step along the outward normal must exit the domain
        outside = d.position(s) + 0.05 * d.normal(s)
        assert not np.any(inside(d, outside))


class TestTriangulate:
    def test_disk_invariants(self, disk, disk_mesh_02):
        m = disk_mesh_02
        assert np.all(m.cell_areas > 0)
        assert m.min_angle_deg() >= 20.0
        assert m.h <= 1.5 * 0.2
        assert abs(m.cell_areas.sum() - math.pi) <= 0.02
        assert abs(m.boundary_lengths.sum() - disk.length) <= 2 * m.h

    def test_boundary_single_loop(self, disk_mesh_02):
        be = disk_mesh_02.boundary_edges
        assert np.array_equal(be[:, 1], np.roll(be[:, 0], -1))

    def test_vertex_count_scaling(self, disk_mesh_02, disk_mesh_01):
        ratio = disk_mesh_01.n_vertices / disk_mesh_02.n_vertices
        assert 2.5 <= ratio <= 6.0

    def test_ellipse_boundary_loop_length(self, ellipse):
        m = triangulate(ellipse, 0.1)
        assert abs(m.boundary_lengths.sum() - ellipse.length) <= 0.2

    def test_area_sum_second_order(self, disk):
        for h in (0.2, 0.1):
            m = triangulate(disk, h)
            assert abs(m.cell_areas.sum() - disk.area) <= 1.0 * h ** 2

    def test_deterministic(self, disk):
        m1 = triangulate(disk, 0.15)
        m2 = triangulate(disk, 0.15)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.cells, m2.cells)

    def test_rejects_bad_h(self, disk):
        with pytest.raises(InvalidParameterError):
            triangulate(disk, 0.0)
        with pytest.raises(InvalidParameterError):
            triangulate(disk, disk.length)

    def test_rounded_polygon_meshes(self):
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(SQUARE, 0.5)
        m = triangulate(d, 0.1)
        assert m.min_angle_deg() >= 20.0
        assert abs(m.cell_areas.sum() - d.area) <= 1.0 * 0.1 ** 2

    def test_interior_segments_stay_inside(self, disk, disk_mesh_01, rng):
        m = disk_mesh_01
        interior = np.nonzero(~m.is_boundary_vertex)[0]
        for _ in range(100):
            i, j = rng.choice(interior, size=2, replace=False)
            lam = rng.uniform(0, 1)
            p = (1 - lam) * m.vertices[i] + lam * m.vertices[j]
            assert inside(disk, p)

    @pytest.mark.filterwarnings("ignore:rounded polygon")
    def test_rounded_square_fine_mesh(self):
        # 561 boundary samples, all on the exact boundary
        d = make_rounded_polygon(SQUARE, 0.5)
        m = triangulate(d, 0.015)
        assert len(m.boundary_edges) > 512
        assert m.min_angle_deg() >= 20.0
        assert abs(m.cell_areas.sum() - d.area) <= 0.015 ** 2


def reference_lattice(domain, a):
    """Reference lattice filter: per row, a strict inside test against every
    sampled tangent line, then the clearance test on the survivors.

    The side of each tangent line is p.n - b.n (one matrix product) rather
    than (p - b).n; the two round differently only for points within a few
    ulps of a tangent line, which are either near the boundary (and fail
    the clearance test) or outside (and have some other positive side).
    """
    pts = domain._table_pts
    normals = domain.normal(np.linspace(0.0, domain.length, _TABLE_SIZE,
                                        endpoint=False))
    offsets = np.einsum("ki,ki->k", pts, normals)
    tree = cKDTree(pts)
    xmin, ymin = domain._table_pts.min(axis=0)
    xmax, ymax = domain._table_pts.max(axis=0)
    dy = a * math.sqrt(3.0) / 2.0
    rows = int(math.floor((ymax - ymin) / dy)) + 1
    cols = int(math.floor((xmax - xmin) / a)) + 2
    out = [np.empty((0, 2))]
    for j in range(rows + 1):
        y = ymin + j * dy
        x0 = xmin + (0.5 * a if j % 2 else 0.0)
        cand = np.column_stack([x0 + a * np.arange(cols), np.full(cols, y)])
        side = cand @ normals.T - offsets
        cand = cand[side.max(axis=1) < 0.0]
        if len(cand):
            dist, _ = tree.query(cand)
            out.append(cand[dist >= _INTERIOR_CLEARANCE * a])
    return np.vstack(out)


LATTICE_DOMAINS = st.one_of(
    st.floats(0.5, 1.0).map(make_disk),
    st.tuples(st.floats(0.5, 1.5), st.floats(0.3, 1.0)).map(
        lambda ab: make_ellipse(*ab)),
    st.floats(0.1, 0.9).map(lambda r: make_rounded_polygon(SQUARE, r)),
)


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestLattice:
    @given(domain=LATTICE_DOMAINS, h=st.floats(0.0125, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_matches_all_tangents_reference(self, domain, h):
        a = _LATTICE_SPACING_FACTOR * h
        points, _ = _hex_lattice(domain, a)
        assert np.array_equal(points, reference_lattice(domain, a))

    @pytest.mark.parametrize("b", [0.1, 0.05])
    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
    def test_thin_ellipse_matches_all_tangents_reference(self, b, h):
        """The thin ellipses (b/a 0.1 and 0.05) whose tips have the largest
        curvature any config reaches."""
        domain = make_ellipse(1.0, b)
        a = _LATTICE_SPACING_FACTOR * h
        points, _ = _hex_lattice(domain, a)
        assert np.array_equal(points, reference_lattice(domain, a))


def mesh_inputs(build):
    """The (loop, fill points, lattice) that ``build()`` hands to
    :func:`mesh_from_loop`."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (geometry, axisym):
            mp.setattr(module, "mesh_from_loop", lambda *args: seen.append(args))
        build()
    return seen[0]


MESHERS = st.one_of(
    LATTICE_DOMAINS.map(lambda d: lambda h: triangulate(d, h)),
    st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)).map(
        lambda ab: lambda h: meridian_mesh(make_ellipse(*ab), h)),
)


def lattice_of(fill):
    """(row, column) of each point of a fill on no equilateral lattice: a
    row of its own each, so no three form a lattice cell."""
    rows = 2 * np.arange(len(fill))
    return np.column_stack([rows, np.zeros_like(rows)])


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestBandMeshing:
    """The one meshing path builds the lattice cells directly and wraps the
    band between them and the loop; it must give a Delaunay triangulation
    of all points, qhull's where that has no cocircular tie."""

    @given(mesher=MESHERS, h=st.floats(0.0125, 0.2))
    @settings(max_examples=20 * EXAMPLES, deadline=None)
    def test_delaunay_property(self, mesher, h):
        loop, fill, lattice = mesh_inputs(lambda: mesher(h))
        points = np.vstack([loop, fill])
        assert_delaunay(points, len(loop), _band_cells(points, len(loop),
                                                       lattice))

    @pytest.mark.parametrize("mesher", [
        lambda: triangulate(make_disk(1.0), 0.1),
        lambda: triangulate(make_ellipse(1.3, 0.7), 0.05),
        lambda: meridian_mesh(make_disk(1.0), 0.1),
        lambda: triangulate(make_ellipse(1.0, 0.2), 0.5),
        lambda: triangulate(make_disk(1.0), 0.025),
        lambda: triangulate(make_ellipse(1.3, 0.7), 0.02),
        lambda: meridian_mesh(make_disk(1.0), 0.0125),
    ], ids=["disk", "ellipse", "meridian", "no-fill", "bench-disk",
            "bench-ellipse", "bench-meridian"])
    def test_cells_canonical_on_both_paths(self, mesher):
        # the lattice and the wrap emit different vertex orders; every mesh
        # cell starts at its smallest vertex
        loop, fill, lattice = mesh_inputs(mesher)
        mesh = mesh_from_loop(loop, fill, lattice)
        assert_delaunay(mesh.vertices, len(loop), mesh.cells)
        c = mesh.cells
        assert np.all((c[:, 0] < c[:, 1]) & (c[:, 0] < c[:, 2]))
        assert np.all(mesh.cell_areas > 0)

    @pytest.mark.parametrize("a, b, h, error", [
        (0.9, 0.75, 0.0625, None), (0.9, 0.3, 0.0125, None),
        (1.0, 0.1, 0.05, None), (1.0, 0.2, 0.2, None), (1.0, 0.2, 0.5, None),
        (1.0, 0.05, 0.2, "three vertices on the loop")],
        ids=["tie", "fine-tie", "thin-tie", "no-lattice-cell", "no-fill",
             "thin-no-fill"])
    def test_ties_and_sparse_fills(self, a, b, h, error):
        """Ellipses with cocircular ties in the wrap, a fill with no lattice
        cell, or no fill at all: the wrap meshes them all."""
        if error:
            with pytest.raises(MeshQualityError, match=error):
                triangulate(make_ellipse(a, b), h)
            return
        mesh = triangulate(make_ellipse(a, b), h)
        assert_delaunay(mesh.vertices, len(mesh.boundary_edges), mesh.cells)
        assert mesh.min_angle_deg() >= 20.0

    def test_off_lattice_falls_back(self, disk):
        loop, fill, lattice = mesh_inputs(lambda: triangulate(disk, 0.1))
        moved = fill.copy()
        moved[len(fill) // 2, 0] += 1e-6 * np.ptp(fill[:, 0])
        with pytest.raises(MeshQualityError, match="off their equilateral"):
            mesh_from_loop(loop, moved, lattice)

    def test_smoothed_falls_back(self, disk):
        # one Laplacian smoothing pass, every fill point to the mean of its
        # neighbours, moves the fill off the lattice
        loop, fill, lattice = mesh_inputs(lambda: triangulate(disk, 0.1))
        points = np.vstack([loop, fill])
        cells = delaunay_cells(points)
        edges = np.vstack([cells[:, [i, (i + 1) % 3]] for i in range(3)])
        src, dst = np.vstack([edges, edges[:, ::-1]]).T
        mean = np.column_stack([np.bincount(src, points[dst, k], len(points))
                                for k in (0, 1)]) \
            / np.bincount(src, minlength=len(points))[:, None]
        with pytest.raises(MeshQualityError, match="off their equilateral"):
            mesh_from_loop(loop, mean[len(loop):], lattice)

    def test_tie_falls_back(self):
        # a unit hexagon of lattice points; the loop samples at 30 + 60 k
        # degrees lie on the circumcircles of its six triangles, which the
        # wrap meshes with the rest
        lattice = np.array([[1, 2], [1, 0], [1, 4], [0, 1], [0, 3], [2, 1],
                            [2, 3]])
        fill = np.column_stack([0.5 * (lattice[:, 1] - 2),
                                0.5 * math.sqrt(3.0) * (lattice[:, 0] - 1)])
        angle = np.radians(30.0 + 30.0 * np.arange(12))
        loop = (2.0 / math.sqrt(3.0)) * np.column_stack(
            [np.cos(angle), np.sin(angle)])
        points = np.vstack([loop, fill])
        tie = assert_delaunay(points, len(loop),
                              _band_cells(points, len(loop), lattice))
        assert tie

    @pytest.mark.parametrize("start", [0, 5, 13])
    def test_square_grid_ties(self, start):
        # every unit square of an integer grid is a cocircular quadruple:
        # the wrap must pick one diagonal of each consistently, whichever
        # loop point comes first
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        loop = np.vstack([6 * c0 + np.arange(6)[:, None] * (c1 - c0)
                          for c0, c1 in zip(corners, np.roll(corners, -1, 0))])
        fill = np.stack(np.meshgrid(np.arange(1, 6), np.arange(1, 6)),
                        -1).reshape(-1, 2)
        points = np.vstack([np.roll(loop, -start, axis=0), fill]).astype(float)
        tie = assert_delaunay(points, len(loop), _band_cells(
            points, len(loop), lattice_of(fill)))
        assert tie


def test_loop_corner_below_bound_raises_after_one_pass():
    # a 16.7 degree corner of the loop
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.3]])
    loop = np.vstack([c0 + np.linspace(0.0, 1.0, 4, endpoint=False)[:, None]
                      * (c1 - c0)
                      for c0, c1 in zip(corners, np.roll(corners, -1, 0))])
    fill = np.array([[0.8, 0.1]])
    with pytest.raises(MeshQualityError, match="three vertices on the loop"):
        mesh_from_loop(loop, fill, lattice_of(fill))


def test_interior_cell_below_bound_raises():
    # two fill points 1e-3 apart make slivers off the loop
    t = np.linspace(0.0, 1.0, 4, endpoint=False)[:, None]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    loop = np.vstack([c0 + t * (c1 - c0)
                      for c0, c1 in zip(corners, np.roll(corners, -1, 0))])
    fill = np.array([[0.5, 0.5], [0.501, 0.5]])
    with pytest.raises(MeshQualityError, match="below 20 degrees"):
        mesh_from_loop(loop, fill, lattice_of(fill))


HEXAGON = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
           for k in range(6)]


def half_ellipse_loop_length(a, b):
    t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 4097)
    arc = np.column_stack([a * np.cos(t), b * np.sin(t)])
    return float(np.linalg.norm(np.diff(arc, axis=0), axis=1).sum()) + 2 * b


def _rounded(vertices, frac):
    v = np.asarray(vertices, dtype=float)
    r = frac * np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).min()
    try:
        return make_rounded_polygon(vertices, r)
    except InvalidParameterError:
        assume(False)   # a radius that leaves no straight part


PLANAR_FAMILIES = st.one_of(
    st.floats(0.3, 2.0).map(make_disk),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.01, 1.0)).map(
        lambda ar: make_ellipse(ar[0], ar[0] * ar[1])),
    st.tuples(st.sampled_from([SQUARE, [[0, 0], [2, 0], [1, 1.8]], HEXAGON]),
              st.floats(0.05, 0.3)).map(lambda vf: _rounded(*vf)),
)


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestMeshQuality:
    """Every mesh keeps the 20 degree minimum angle, or the worst cell has
    all three vertices on the loop, which no placement of fill points can
    repair (thin ellipses at coarse h)."""

    @staticmethod
    def check(build):
        try:
            mesh = build()
        except MeshQualityError as exc:
            assert "three vertices on the loop" in str(exc)
        else:
            assert mesh.min_angle_deg() >= 20.0

    @given(domain=PLANAR_FAMILIES, k=st.floats(8.5, 120.0))
    @settings(max_examples=100 * EXAMPLES, deadline=None)
    def test_triangulate(self, domain, k):
        self.check(lambda: triangulate(domain, domain.length / k))

    @given(a=st.floats(0.3, 2.0), b=st.floats(0.3, 2.0),
           k=st.floats(8.5, 120.0))
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    def test_meridian_mesh(self, a, b, k):
        h = half_ellipse_loop_length(a, b) / k
        self.check(lambda: meridian_mesh(make_ellipse(a, b), h))


def _package_env():
    src = str(Path(pmclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("module", ["scipy", "scipy.interpolate",
                                    "scipy.sparse", "scipy.sparse.csgraph",
                                    "scipy.spatial", "scipy.special"])
def test_cli_import_leaves_out(module):
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pmclab.cli; "
         f"print({module!r} in sys.modules)"],
        env=_package_env(), capture_output=True, text=True, check=True,
        timeout=60)
    assert out.stdout.strip() == "False"


def test_run_path_imports_no_scipy(tmp_path):
    """Meshing, solving, the census, the property suite and the artifacts
    of verify (Neumann disk, Robin ellipse along its schedule, ball at
    n_dim 4) and of compare import no scipy module: the two compiled
    kernels of pmclab.sparse are loaded by file."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    runs = [("verify", "neumann_disk.json", []),
            ("verify", "robin_ellipse.json", []),
            ("verify", "ball3d_robin.json", ["problem.n_dim=4"]),
            ("compare", "compare_robin_disk.json", [])]
    argvs = [[command, "--config", str(configs / name),
              "--out", str(tmp_path / str(k)),
              "--override", "mesh.h_target=0.1"]
             + [arg for ov in overrides for arg in ("--override", ov)]
             for k, (command, name, overrides) in enumerate(runs)]
    script = ("import json, sys\n"
              "from pmclab.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    main(argv)\n"
              "    print(json.dumps([m for m in sys.modules if m == 'scipy' "
              "or m.startswith('scipy.')]))\n")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         env=_package_env(), capture_output=True, text=True,
                         check=True, timeout=300)
    assert out.stdout.split() == ["[]"] * len(runs)
    assert all((tmp_path / str(k) / "report.json").exists()
               for k in range(len(runs)))


def locate_brute_force(mesh, pts):
    """(P, M) mask of the cells whose barycentric coordinates at each point
    are all >= -1e-9: the inside test of ``TriMesh.locate`` on every cell."""
    cells = np.arange(mesh.n_cells)
    return np.array([mesh._barycentric(np.broadcast_to(p, (mesh.n_cells, 2)),
                                       cells).min(axis=1) >= -1e-9
                     for p in pts])


def _planar_mesh(domain, k):
    try:
        return triangulate(domain, domain.length / k)
    except MeshQualityError:
        assume(False)


def _meridian_mesh(a, b, k):
    try:
        return meridian_mesh(make_ellipse(a, b),
                             half_ellipse_loop_length(a, b) / k)
    except MeshQualityError:
        assume(False)


LOCATE_MESHES = st.one_of(
    st.tuples(LATTICE_DOMAINS, st.floats(8.5, 120.0)).map(
        lambda dk: _planar_mesh(*dk)),
    st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5),
              st.floats(8.5, 120.0)).map(lambda abk: _meridian_mesh(*abk)),
)


@pytest.mark.filterwarnings("ignore:rounded polygon")
@given(mesh=LOCATE_MESHES, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_locate_matches_brute_force(mesh, seed):
    """The nearest-centroid candidates miss no inside point: ``locate``
    returns -1 exactly where no cell holds the point, and a holding cell
    everywhere else.  Points: uniform over the padded bounding box, 1e-10
    off vertices, and on boundary vertices."""
    rng = np.random.default_rng(seed)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 0.05 * (hi - lo)
    uniform = rng.uniform(lo - pad, hi + pad, size=(150, 2))
    turn = rng.uniform(0.0, 2.0 * math.pi, 100)
    near = mesh.vertices[rng.integers(mesh.n_vertices, size=100)] \
        + 1e-10 * np.column_stack([np.cos(turn), np.sin(turn)])
    on = mesh.vertices[mesh.boundary_edges[:, 0]]
    pts = np.vstack([uniform, near, on])
    found = locate_brute_force(mesh, pts)
    cells = mesh.locate(pts)
    assert np.array_equal(cells >= 0, found.any(axis=1))
    hit = np.nonzero(cells >= 0)[0]
    assert found[hit, cells[hit]].all()


@pytest.mark.parametrize("points, side", [
    ([[0.0, 0.0], [math.inf, 1.0]], 0.1),
    ([[0.0, 0.0], [math.nan, 1.0]], 0.1),
    ([[0.0, 0.0], [1.0, 1.0]], 0.0)], ids=["inf", "nan", "zero-side"])
def test_bucket_grid_refuses_what_would_not_end(points, side):
    """A non-finite point or a zero side would keep the grid doubling its
    side forever, or size its bucket array from a garbage index."""
    with pytest.raises(InvalidParameterError):
        _BucketGrid(np.array(points), side)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_mesh_refuses_non_finite_vertices(bad):
    """A non-finite corner gives a cell area that no sign check refuses and
    h = nan or inf."""
    with pytest.raises(MeshQualityError, match="non-finite"):
        TriMesh([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]], [[0, 1, 2]],
                [[0, 1], [1, 2], [2, 0]])


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestGradientOperator:
    """The closed-form basis gradients and the x and y gradient operators
    against the inverse edge matrices and the difference formula of
    ``tests/oracles.py``, on disk, ellipse, rounded-polygon and meridian
    meshes."""

    @given(mesh=LOCATE_MESHES)
    @settings(max_examples=30, deadline=None)
    def test_basis_matches_inverse(self, mesh):
        basis = np.moveaxis(mesh.basis_gradients, 0, -1)        # (M, 3, 2)
        ref = basis_gradients_reference(mesh)
        scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(basis - ref) <= 1e-12 * scale)
        assert np.all(np.abs(basis.sum(axis=1))
                      <= 1e-12 * scale[:, :, 0])

    @given(mesh=LOCATE_MESHES, seed=st.integers(0, 2 ** 32 - 1),
           coef=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
    @settings(max_examples=30, deadline=None)
    def test_gradients_match_difference_formula(self, mesh, seed, coef):
        values = np.random.default_rng(seed).standard_normal(mesh.n_vertices)
        ref = cell_gradients_reference(mesh, values)
        grads = mesh.cell_gradients(values)
        assert grads.shape == (mesh.n_cells, 2)
        assert np.abs(grads - ref).max() \
            <= 1e-12 * np.linalg.norm(ref, axis=1).max()
        c0, cx, cy = coef
        linear = c0 + cx * mesh.vertices[:, 0] + cy * mesh.vertices[:, 1]
        assert np.abs(mesh.cell_gradients(linear) - [cx, cy]).max() <= 1e-12


class TestMeshQueries:
    def test_locate_and_interpolate_linear_exact(self, disk_mesh_01, rng):
        m = disk_mesh_01
        f = 2.0 * m.vertices[:, 0] - 0.5 * m.vertices[:, 1] + 1.0
        pts = rng.uniform(-0.6, 0.6, size=(50, 2))
        vals = m.interpolate(f, pts)
        exact = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
        assert np.allclose(vals, exact, atol=1e-12)

    def test_locate_outside_returns_minus_one(self, disk_mesh_01):
        assert disk_mesh_01.locate(np.array([[3.0, 0.0]]))[0] == -1

    def test_cell_gradients_linear_exact(self, disk_mesh_01):
        m = disk_mesh_01
        f = -1.5 * m.vertices[:, 0] + 4.0 * m.vertices[:, 1]
        g = m.cell_gradients(f)
        assert np.allclose(g, [-1.5, 4.0], atol=1e-12)

    def test_mesh_hash_distinguishes(self, disk_mesh_01, disk_mesh_02):
        assert disk_mesh_01.mesh_hash() != disk_mesh_02.mesh_hash()
