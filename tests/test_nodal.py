import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmclab.artifacts import contour_polylines
from pmclab.assembly import ScalarField
from pmclab.critical import find_critical_points
from pmclab.errors import (InvalidParameterError, OutOfDomainError,
                           UnderflowFitError)
from pmclab.geometry import make_rounded_polygon, triangulate
from pmclab.nodal import (CylinderSolution, difference_field, level_sets,
                          leading_order_fit, sector_count, trace_nodal_set)

from oracles import (contour_polylines_reference, radial_disk_oracle,
                     trace_nodal_set_reference)


def synth(mesh, fn):
    return ScalarField(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def second_difference(fn, x, eps=1e-5):
    """Central second difference in x1 of a function of planar points."""
    p = np.array([[x + eps, 0.0], [x, 0.0], [x - eps, 0.0]])
    v = fn(p)
    return (v[0] - 2.0 * v[1] + v[2]) / eps ** 2


class TestCylinderSolution:
    def test_ode_at_origin(self):
        X = CylinderSolution(0.0, 1.0)
        assert X(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
        # even in x1, so the slope vanishes; X''(0) = H
        assert X(np.array([[1e-3, 0.0]]))[0] == X(np.array([[-1e-3, 0.0]]))[0]
        assert second_difference(X, 0.0) == pytest.approx(1.0, rel=1e-4)

    def test_ode_everywhere(self):
        # X'' = H (1 + X'^2)^(3/2), X' = H x / sqrt(1 - H^2 x^2), verified
        # against finite differences
        H = 0.8
        X = CylinderSolution(0.0, H)
        for x in np.linspace(-1.0, 1.0, 21):
            slope = H * x / np.sqrt(1.0 - (H * x) ** 2)
            assert second_difference(X, x) == pytest.approx(
                H * (1.0 + slope ** 2) ** 1.5, rel=1e-4)

    def test_closed_form_value(self):
        X = CylinderSolution(0.0, 1.0)
        assert X(np.array([[0.6, 2.0]]))[0] == pytest.approx(0.2, abs=1e-15)

    @given(h=st.floats(-3, 3), x=st.floats(-0.9, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_shift_and_symmetry(self, h, x):
        X0 = CylinderSolution(0.0, 1.0)
        Xh = CylinderSolution(h, 1.0)
        p = np.array([[x, 0.0]])
        q = np.array([[-x, 0.0]])
        assert Xh(p)[0] - h == pytest.approx(X0(p)[0], abs=1e-12)
        assert X0(p)[0] == pytest.approx(X0(q)[0], abs=1e-12)
        assert X0(p)[0] >= 0.0

    def test_out_of_domain(self):
        X = CylinderSolution(0.0, 1.0)
        with pytest.raises(OutOfDomainError):
            X(np.array([[1.5, 0.0]]))


class TestDifferenceField:
    def test_self_difference_zero(self, robin_disk_005):
        field, _ = robin_disk_005
        diff = difference_field(
            field, lambda pts: field.values.copy() if pts.shape[0] ==
            field.mesh.n_vertices else None)
        assert np.abs(diff.values).max() == 0.0

    def test_solution_minus_cylinder_saddle(self, robin_disk_005, robin_spec,
                                            disk_mesh_005):
        field, _ = robin_disk_005
        recs = find_critical_points(field, robin_spec)
        p = recs[0].location
        u_p = float(field.mesh.interpolate(field.values, p[None, :])[0])
        diff = difference_field(field,
                                CylinderSolution(u_p, robin_spec.H, center=p))
        drecs = find_critical_points(diff, robin_spec)
        centers = [r for r in drecs
                   if np.linalg.norm(r.location - p) < 3 * disk_mesh_005.h]
        assert centers and centers[0].classification == "saddle"
        lam = np.sort(np.linalg.eigvalsh(centers[0].hessian))
        assert lam[0] == pytest.approx(-robin_spec.H / 2, rel=0.15)
        assert lam[1] == pytest.approx(robin_spec.H / 2, rel=0.15)

    def test_clips_to_cylinder_strip(self, disk_mesh_01):
        # halfwidth 1/H < 1 forces clipping of the unit disk mesh
        field = ScalarField(disk_mesh_01,
                            np.zeros(disk_mesh_01.n_vertices))
        with pytest.warns(UserWarning, match="clips"):
            diff = difference_field(field, CylinderSolution(0.0, 1.5))
        assert diff.mesh.n_cells < disk_mesh_01.n_cells
        assert np.abs(diff.mesh.vertices[:, 0]).max() < 1.0 / 1.5


class TestTraceNodalSet:
    def test_linear_field_single_diameter(self, disk_mesh_005):
        ns = trace_nodal_set(synth(disk_mesh_005, lambda x, y: x))
        assert len(ns.arcs) == 1
        pts = np.vstack(ns.arcs)
        assert np.abs(pts[:, 0]).max() <= disk_mesh_005.h

    def test_harmonic_cubic_six_arcs(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: np.real((x + 1j * y) ** 3))
        ns = trace_nodal_set(f)
        assert len(ns.arcs) == 6
        assert ns.junction is not None
        assert np.linalg.norm(ns.junction) <= 2 * disk_mesh_005.h
        boundary_hits = sum(
            1 for a in ns.arcs for e in (a[0], a[-1])
            if np.linalg.norm(e) >= 1.0 - 2 * disk_mesh_005.h)
        assert boundary_hits == 6

    def test_quadratic_saddle_two_arcs(self, disk_mesh_005):
        ns = trace_nodal_set(synth(disk_mesh_005, lambda x, y: x ** 2 - y ** 2))
        assert len(ns.arcs) == 2

    def test_rejects_zero_field(self, disk_mesh_005):
        with pytest.raises(InvalidParameterError):
            trace_nodal_set(ScalarField(disk_mesh_005,
                                        np.zeros(disk_mesh_005.n_vertices)))

    def test_arcs_lie_on_sign_changes(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x + 0.3 * y ** 2)
        ns = trace_nodal_set(f)
        for arc in ns.arcs:
            vals = disk_mesh_005.interpolate(f.values, arc)
            assert np.abs(vals).max() <= 1e-10


@pytest.fixture(scope="module")
def rounded_mesh_005():
    with pytest.warns(UserWarning, match="rounded polygon"):
        domain = make_rounded_polygon(
            [[-1.0, -0.6], [1.0, -0.6], [1.0, 0.6], [-1.0, 0.6]], 0.3)
    return triangulate(domain, 0.05)


MESHES = ["disk_mesh_005", "ellipse_mesh_005", "rounded_mesh_005",
          "ball_mesh_005"]


def assert_same_arcs(got, want):
    """The same arcs in the same order and the same junction, bit for bit."""
    assert len(got.arcs) == len(want.arcs)
    for g, w in zip(got.arcs, want.arcs):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert (got.junction is None) == (want.junction is None)
    if want.junction is not None:
        assert got.junction.tobytes() == want.junction.tobytes()


class TestLevelSetsMatchReference:
    """The one-pass kernel against the per-level dict-chaining tracer of
    ``oracles``: arcs, their order and direction, and junctions agree to
    the bit."""

    @pytest.mark.parametrize("mesh_name", MESHES)
    @pytest.mark.parametrize("fn", [
        lambda x, y: x,
        lambda x, y: x ** 2 - y ** 2,
        lambda x, y: np.real((x + 1j * y) ** 3),
        lambda x, y: x ** 2 + y ** 2 - 0.25,
        lambda x, y: np.where(np.abs(x - 0.3) < 0.2, 0.0, x - 0.3),
    ], ids=["x", "saddle", "cubic", "radial", "vertex-zeros"])
    def test_zero_set(self, request, mesh_name, fn):
        f = synth(request.getfixturevalue(mesh_name), fn)
        assert_same_arcs(trace_nodal_set(f), trace_nodal_set_reference(f))

    def test_cases_cover_loops_junctions_and_vertex_zeros(self,
                                                          disk_mesh_005):
        loop = trace_nodal_set_reference(
            synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2 - 0.25))
        assert len(loop.arcs) == 1
        assert loop.arcs[0][0].tobytes() == loop.arcs[0][-1].tobytes()
        cubic = trace_nodal_set_reference(
            synth(disk_mesh_005, lambda x, y: np.real((x + 1j * y) ** 3)))
        assert cubic.junction is not None
        zeros = synth(disk_mesh_005, lambda x, y: np.where(
            np.abs(x - 0.3) < 0.2, 0.0, x - 0.3))
        assert np.count_nonzero(zeros.values == 0.0) > 10

    @pytest.mark.parametrize("mesh_name", MESHES)
    def test_levels_at_vertex_values(self, request, mesh_name, rng):
        # each level equals some vertex value, so every level nudges
        mesh = request.getfixturevalue(mesh_name)
        f = synth(mesh, lambda x, y: np.sin(3 * x) + y ** 2 + 0.4 * x * y)
        levels = np.sort(rng.choice(f.values, 7, replace=False))
        for lev, got in zip(levels, level_sets(f, levels)):
            assert_same_arcs(got, trace_nodal_set_reference(
                ScalarField(mesh, f.values - lev)))

    @pytest.mark.parametrize("fixture", ["robin_disk_005", "ellipse_homotopy",
                                         "ball_robin_005", "rounded_mesh_005"])
    def test_contour_levels(self, request, fixture):
        if fixture == "rounded_mesh_005":
            f = synth(request.getfixturevalue(fixture),
                      lambda x, y: np.cos(2 * x) + y ** 2 + 0.3 * x * y)
        else:
            f, _ = request.getfixturevalue(fixture)
        got, want = contour_polylines(f), contour_polylines_reference(f)
        assert [lev for lev, _ in got] == [lev for lev, _ in want]
        assert [arc.tobytes() for _, arc in got] \
            == [arc.tobytes() for _, arc in want]


class TestSectorCount:
    def test_harmonic_cubic(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: np.real((x + 1j * y) ** 3))
        assert sector_count(f, (0.0, 0.0), 0.5) == 6

    def test_quadratic_saddle(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 - y ** 2)
        assert sector_count(f, (0.0, 0.0), 0.5) == 4

    def test_definite_field_zero(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2 + 0.1)
        assert sector_count(f, (0.0, 0.0), 0.5) == 0

    @given(k=st.sampled_from([2, 3, 4]), phase=st.floats(0, 6.28))
    @settings(max_examples=20, deadline=None)
    def test_harmonic_sector_parity(self, disk_mesh_005, k, phase):
        rho = np.exp(1j * phase)
        f = synth(disk_mesh_005,
                  lambda x, y: np.real(rho * (x + 1j * y) ** k))
        n = sector_count(f, (0.0, 0.0), 0.5)
        assert n == 2 * k
        assert n % 2 == 0


class TestLeadingOrderFit:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_harmonic_degrees(self, disk_mesh_005, k):
        f = synth(disk_mesh_005,
                  lambda x, y: np.real((x + 1j * y) ** k))
        fit = leading_order_fit(f, (0.0, 0.0), 2 * disk_mesh_005.h, 0.5)
        assert fit.k == pytest.approx(k, abs=0.15)
        assert fit.amplitude == pytest.approx(1.0, rel=0.2)

    def test_bowl_degree_two(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x ** 2 + y ** 2)
        fit = leading_order_fit(f, (0.0, 0.0), 0.1, 0.5)
        assert fit.k == pytest.approx(2.0, abs=0.1)

    def test_cap_minus_quadratic_is_quartic(self, disk_mesh_005, robin_spec):
        # radial expansion: v0 + H r^2/4 + H^3 r^4/64 + O(r^6)
        oracle = radial_disk_oracle(robin_spec)
        cap = ScalarField(disk_mesh_005,
                          oracle.at_points(disk_mesh_005.vertices))
        diff = difference_field(cap, lambda x: oracle.v0 + robin_spec.H / 4
                                * np.sum(x ** 2, axis=-1))
        fit = leading_order_fit(diff, (0.0, 0.0), 0.15, 0.45)
        assert fit.k == pytest.approx(4.0, abs=0.5)
        assert fit.amplitude == pytest.approx(robin_spec.H ** 3 / 64, rel=0.5)

    def test_solution_minus_cylinder_subcubic(self, robin_disk_005,
                                              robin_spec, disk_mesh_005):
        field, _ = robin_disk_005
        recs = find_critical_points(field, robin_spec)
        p = recs[0].location
        u_p = float(field.mesh.interpolate(field.values, p[None, :])[0])
        diff = difference_field(field,
                                CylinderSolution(u_p, robin_spec.H, center=p))
        fit = leading_order_fit(diff, p, 2 * disk_mesh_005.h, 0.3)
        assert fit.k <= 2.5

    def test_underflow_raises(self, disk_mesh_005):
        f = ScalarField(disk_mesh_005,
                        np.full(disk_mesh_005.n_vertices, 1e-18))
        f.values[0] = 1.0   # set the scale, keep the annulus at rounding level
        with pytest.raises(UnderflowFitError):
            leading_order_fit(f, (0.3, 0.3), 0.1, 0.2)

    def test_window_validation(self, disk_mesh_005):
        f = synth(disk_mesh_005, lambda x, y: x)
        with pytest.raises(InvalidParameterError):
            leading_order_fit(f, (0.0, 0.0), 0.5, 0.1)
