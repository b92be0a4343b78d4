import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

import pmclab
from pmclab.errors import InvalidParameterError
from pmclab.geometry import (_INTERIOR_CLEARANCE, _LATTICE_SPACING_FACTOR,
                             _hex_lattice, make_disk, make_ellipse,
                             make_rounded_polygon, triangulate)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


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
        assert np.allclose(d.curvature(s), 1.0, atol=1e-12)

    def test_curvature_scales_inverse_radius(self):
        d = make_disk(2.0)
        assert d.curvature(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_centroid_at_origin(self):
        d = make_disk(1.0)
        assert np.linalg.norm(d.centroid) < 1e-12

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
        # closed form a/b^2 at the point (a, 0), which sits at s = 0
        assert e.curvature(0.0) == pytest.approx(1.3 / 0.7 ** 2, abs=1e-8)

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


class TestRoundedPolygon:
    def test_square_length(self):
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(SQUARE, 0.5)
        assert d.length == pytest.approx(4.0 + math.pi, abs=1e-9)
        assert not d.smooth

    def test_square_area_against_shoelace_oracle(self):
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(SQUARE, 0.5)
        assert d.area == pytest.approx(3.0 + math.pi / 4.0, abs=1e-12)
        assert shoelace_area(d) == pytest.approx(d.area, abs=1e-6)

    def test_triangle_turning_carried_by_arcs(self):
        tri = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]]
        with pytest.warns(UserWarning):
            d = make_rounded_polygon(tri, 0.3)
        # total curvature integral equals 2 pi, all of it on the arcs
        s = np.linspace(0, d.length, 400000, endpoint=False)
        total = np.sum(d.curvature(s)) * d.length / len(s)
        assert total == pytest.approx(2 * math.pi, rel=1e-3)

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
        assert d.contains(np.array([0.0, 0.0]))
        assert not d.contains(np.array([2.0, 0.0]))

    def test_ellipse_axis_points(self):
        e = make_ellipse(1.3, 0.7)
        assert e.contains(np.array([1.29, 0.0]))
        assert not e.contains(np.array([0.0, 0.71]))

    @given(x=st.floats(-2, 2), y=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_radius_test_on_disk(self, x, y):
        d = make_disk(1.0)
        r = math.hypot(x, y)
        if abs(r - 1.0) > 1e-6:
            assert bool(d.contains(np.array([x, y]))) == (r < 1.0)


class TestSpline:
    @pytest.mark.filterwarnings("ignore:rounded polygon")
    @pytest.mark.parametrize("factory", [
        lambda: make_disk(1.0),
        lambda: make_ellipse(1.3, 0.7),
        lambda: make_ellipse(2.0, 0.3),
        lambda: make_rounded_polygon(SQUARE, 0.5),
    ])
    def test_matches_scipy_periodic_cubic_spline(self, factory, rng):
        d = factory()
        ref = CubicSpline(d._table_s, d._table_pts, bc_type="periodic", axis=0)
        s = np.concatenate([rng.uniform(-d.length, 2.0 * d.length, 20000),
                            d._table_s])
        t = np.mod(s, d.length)
        slope = ref(t, 1)
        want_tan = slope / np.linalg.norm(slope, axis=-1, keepdims=True)
        for got, want in ((d.position(s), ref(t)), (d.tangent(s), want_tan)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14
        for fn in (d.position, d.tangent, d.normal):
            assert fn(0.3).shape == (2,)
        assert np.max(np.abs(d.position(0.3) - ref(0.3))) <= 1e-14
        assert d.tangent(s[:20000].reshape(4, -1)).shape == (4, 5000, 2)


class TestConvexityInvariants:
    @pytest.mark.parametrize("factory", [
        lambda: make_disk(1.0),
        lambda: make_ellipse(1.3, 0.7),
    ])
    def test_positive_curvature_sampled(self, factory):
        d = factory()
        s = np.linspace(0, d.length, 1000, endpoint=False)
        assert np.all(d.curvature(s) > 0)

    def test_centroid_inside_every_tangent(self):
        for d in (make_disk(1.0), make_ellipse(1.3, 0.7)):
            s = np.linspace(0, d.length, 500, endpoint=False)
            side = np.einsum("ki,ki->k", d.centroid - d.position(s),
                             d.normal(s))
            assert np.all(side < 0)

    def test_outward_normal_orientation(self):
        d = make_ellipse(1.3, 0.7)
        s = np.linspace(0, d.length, 100, endpoint=False)
        # moving a step along the outward normal must exit the domain
        outside = d.position(s) + 0.05 * d.normal(s)
        assert not np.any(d.contains(outside))


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
            assert disk.contains(p)

    @pytest.mark.filterwarnings("ignore:rounded polygon")
    def test_rounded_square_fine_mesh(self):
        # 561 boundary samples: above _TABLE_SIZE // 4 they are placed by
        # the spline, except next to the straight runs
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
    pts = domain._table_pts[:-1]
    normals = domain.normal(domain._table_s[:-1])
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
        assert np.array_equal(_hex_lattice(domain, a),
                              reference_lattice(domain, a))


def test_cli_import_leaves_out_scipy_interpolate():
    src = str(Path(pmclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pmclab.cli; "
         "print('scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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
