import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmclab.assembly import ScalarField
from pmclab.critical import (classify, circle_loop, find_critical_points,
                             gradient_index, interior_max_scan,
                             inward_offset_loop, recover_gradient)
from pmclab.errors import IllConditionedLoopError
from pmclab.solver import radial_disk_oracle


def synth(mesh, fn):
    return ScalarField(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]))


class TestRecoverGradient:
    def test_linear_exact(self, disk_mesh_01):
        f = synth(disk_mesh_01, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
        g = recover_gradient(f)
        assert np.allclose(g, [2.0, -3.0], atol=1e-12)

    def test_radial_oracle_vanishes_at_center(self, disk_mesh_01, robin_spec):
        oracle = radial_disk_oracle(robin_spec)
        f = ScalarField(disk_mesh_01,
                        oracle.at_points(disk_mesh_01.vertices))
        g = recover_gradient(f)
        center = int(np.argmin(np.linalg.norm(disk_mesh_01.vertices, axis=1)))
        assert np.linalg.norm(g[center]) <= 2.0 * disk_mesh_01.h

    def test_quadratic_first_order(self, disk_mesh_01):
        f = synth(disk_mesh_01, lambda x, y: x ** 2)
        g = recover_gradient(f)
        i = int(np.argmin(np.linalg.norm(
            disk_mesh_01.vertices - np.array([0.5, 0.0]), axis=1)))
        assert np.linalg.norm(g[i] - np.array([1.0, 0.0])) <= 0.05


class TestClassify:
    def test_disk_solution_hessian(self):
        H = 0.8
        assert classify(np.diag([H / 2, H / 2]), scale=H) == "minimum"

    def test_degenerate_normal_form(self):
        H = 0.8
        assert classify(np.diag([H, 0.0]), scale=H) == "degenerate"

    def test_saddle(self):
        assert classify(np.diag([1.0, -1.0]), scale=1.0) == "saddle"

    def test_maximum(self):
        assert classify(-np.eye(2), scale=1.0) == "maximum"

    @given(l1=st.floats(-2, 2), l2=st.floats(-2, 2),
           theta=st.floats(0, 3.14))
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariant_and_sign_consistent(self, l1, l2, theta):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        h = R @ np.diag([l1, l2]) @ R.T
        scale = max(abs(l1), abs(l2), 0.5)
        cls = classify(h, scale)
        band = 1e-2 * scale
        if min(l1, l2) > band:
            assert cls == "minimum"
        elif max(l1, l2) < -band:
            assert cls == "maximum"
        elif l1 * l2 < -1e-2 * scale ** 2:
            assert cls == "saddle"


class TestFindCriticalPoints:
    def test_robin_oracle_field(self, disk_mesh_005, robin_spec):
        oracle = radial_disk_oracle(robin_spec)
        f = ScalarField(disk_mesh_005,
                        oracle.at_points(disk_mesh_005.vertices))
        recs = find_critical_points(f, robin_spec)
        assert len(recs) == 1
        assert np.linalg.norm(recs[0].location) <= disk_mesh_005.h
        assert recs[0].classification == "minimum"

    def test_synthetic_bowl(self, disk_mesh_005, robin_spec):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        assert len(recs) == 1
        r = recs[0]
        assert np.allclose(r.hessian, 2.0 * np.eye(2), atol=0.2)
        assert r.index == 1
        assert r.classification == "minimum"

    def test_synthetic_saddle(self, disk_mesh_005, robin_spec):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 - y ** 2)
        recs = find_critical_points(f, robin_spec)
        assert len(recs) == 1
        assert recs[0].classification == "saddle"
        assert recs[0].gauss_curvature < 0
        assert recs[0].index == -1

    def test_double_well(self, robin_spec):
        from pmclab.geometry import make_disk, triangulate
        mesh = triangulate(make_disk(2.0), 0.15)
        f = synth(mesh, lambda x, y: (x ** 2 - 1.0) ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        classes = sorted(r.classification for r in recs)
        assert classes == ["minimum", "minimum", "saddle"]
        indices = sorted(r.index for r in recs)
        assert indices == [-1, 1, 1]

    def test_solved_field(self, robin_disk_005, robin_spec, disk_mesh_005):
        field, _ = robin_disk_005
        recs = find_critical_points(field, robin_spec)
        assert len(recs) == 1
        r = recs[0]
        assert np.linalg.norm(r.location) <= disk_mesh_005.h
        assert np.allclose(r.hessian, 0.4 * np.eye(2), atol=0.04)
        assert abs(np.trace(r.hessian) - robin_spec.H) <= 0.1 * robin_spec.H


class TestGradientIndex:
    def test_bowl_plus_one(self, disk_mesh_005, robin_spec):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2)
        assert gradient_index(f, circle_loop((0, 0), 0.8)) == 1

    def test_saddle_minus_one(self, disk_mesh_005, robin_spec):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 - y ** 2)
        assert gradient_index(f, circle_loop((0, 0), 0.8)) == -1

    def test_converged_solution_boundary_loop(self, ellipse,
                                              ellipse_mesh_005,
                                              ellipse_homotopy):
        field, _ = ellipse_homotopy
        loop = inward_offset_loop(ellipse, 2 * ellipse_mesh_005.h)
        assert gradient_index(field, loop) == 1

    def test_index_sum_matches_records(self, robin_spec):
        from pmclab.geometry import make_disk, triangulate
        mesh = triangulate(make_disk(2.0), 0.15)
        f = synth(mesh, lambda x, y: (x ** 2 - 1.0) ** 2 + y ** 2)
        recs = find_critical_points(f, robin_spec)
        total = gradient_index(f, circle_loop((0, 0), 1.8))
        assert total == sum(r.index for r in recs) == 1

    def test_ill_conditioned_loop_raises(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2)
        with pytest.raises(IllConditionedLoopError):
            gradient_index(f, circle_loop((0, 0), 1e-4))

    @given(a=st.floats(0.2, 2.0), b=st.floats(0.2, 2.0),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_forms(self, disk_mesh_01, robin_spec, a, b, sign):
        f = synth(disk_mesh_01, lambda x, y: a * x ** 2 + sign * b * y ** 2)
        idx = gradient_index(f, circle_loop((0, 0), 0.7))
        assert idx == (1 if sign > 0 else -1)


class TestInteriorMaxScan:
    def test_solved_robin_has_none(self, robin_disk_005):
        field, _ = robin_disk_005
        assert interior_max_scan(field) == []

    def test_synthetic_dome(self, disk_mesh_01):
        f = synth(disk_mesh_01, lambda x, y: -(x ** 2 + y ** 2))
        hits = interior_max_scan(f)
        assert len(hits) == 1
        assert np.linalg.norm(disk_mesh_01.vertices[hits[0]]) <= disk_mesh_01.h

    def test_constant_field_has_none(self, disk_mesh_01):
        f = ScalarField(disk_mesh_01, np.zeros(disk_mesh_01.n_vertices))
        assert interior_max_scan(f) == []

    @given(seed=st.integers(0, 2 ** 32 - 1), levels=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_matches_plain_loop(self, disk_mesh_01, seed, levels):
        # few levels: ties between neighbors and plateaus everywhere
        m = disk_mesh_01
        v = np.random.default_rng(seed).integers(0, levels, m.n_vertices)
        f = ScalarField(m, v.astype(float))
        assert interior_max_scan(f) == reference_interior_maxima(m, f.values)


def reference_interior_maxima(mesh, v):
    """Per-vertex loop over neighbor sets read from the cells: interior
    vertices strictly above every neighbor, in index order."""
    neighbors = [set() for _ in range(mesh.n_vertices)]
    for cell in mesh.cells.tolist():
        for i in cell:
            neighbors[i].update(j for j in cell if j != i)
    indptr, indices = mesh.vertex_neighbors()
    out = []
    for i in range(mesh.n_vertices):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == sorted(neighbors[i])
        if mesh.is_boundary_vertex[i] or not neighbors[i]:
            continue
        if all(v[i] > v[j] for j in neighbors[i]):
            out.append(i)
    return out
