import functools
import math

import numpy as np
import pytest

from pmclab.assembly import Discretization, ProblemSpec, ScalarField
from pmclab import pipeline
from pmclab.axisym import (axis_hessian, axis_vertices, check_monotone,
                           find_axis_critical, meridian_mesh)
from pmclab.critical import recover_gradient
from pmclab.errors import InvalidParameterError, NoAxisCriticalError
from pmclab.geometry import make_disk, make_ellipse, make_rounded_polygon
from pmclab.nodal import trace_nodal_set
from pmclab.solver import newton_solve
from pmclab.verify import run_suite

from oracles import radial_ball_oracle

# frozen closed-form values for the Robin ball R=1, alpha=1, H=0.8, n=3
BALL_SLOPE_AT_1 = 0.27668578554642986
BALL_LEVEL = -0.41247771184618975


def synth(mesh, fn):
    return ScalarField(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def meridian_disc(spec, mesh):
    return Discretization(mesh, spec.n_dim - 2)


def revolved_volume(mesh, n_dim):
    """Volume of the domain of revolution in dimension ``n_dim`` from the
    weighted cell measure of its meridian ``mesh``: the unit (n-2)-sphere's
    measure times the r^(n-2)-weighted area."""
    k = n_dim - 1
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0) \
        * Discretization(mesh, n_dim - 2).volume


@functools.cache
def _revolved_meshes(a, b):
    domain = make_disk(a) if a == b else make_ellipse(a, b)
    return tuple(meridian_mesh(domain, h) for h in (0.05, 0.025, 0.0125))


@pytest.fixture(scope="module")
def ball_mesh_00125():
    return _revolved_meshes(1.0, 1.0)[-1]


class TestMeridianMesh:
    def test_ball_half_disk(self, ball_mesh_005):
        m = ball_mesh_005
        assert np.all(m.vertices[:, 0] >= -1e-12)
        assert m.min_angle_deg() >= 20.0
        ax = axis_vertices(m)
        z = m.vertices[ax, 1]
        assert z.min() == pytest.approx(-1.0, abs=1e-12)
        assert z.max() == pytest.approx(1.0, abs=1e-12)

    def test_spheroid_mesh(self):
        m = meridian_mesh(make_ellipse(0.7, 1.2), 0.1)
        assert m.vertices[:, 0].max() == pytest.approx(0.7, abs=0.05)
        assert abs(m.vertices[:, 1]).max() == pytest.approx(1.2, abs=1e-9)

    def test_vertex_scaling(self, disk):
        m1 = meridian_mesh(disk, 0.1)
        m2 = meridian_mesh(disk, 0.05)
        assert 2.5 <= m2.n_vertices / m1.n_vertices <= 6.0

    def test_axis_edges_carry_no_flux(self, ball_mesh_005):
        # the axis chain is pinned to r = 0, so the weight r^(n-2) is
        # exactly zero at the Gauss points of its edges and positive on
        # every other boundary edge
        m = ball_mesh_005
        on_axis = np.isin(m.boundary_edges, axis_vertices(m)).all(axis=1)
        assert on_axis.sum() >= 2
        for n_dim in (3, 4, 5, 6):
            wq = Discretization(m, n_dim - 2).wq
            assert np.all(wq[on_axis] == 0.0)
            assert np.all(wq[~on_axis] > 0.0)

    def test_revolved_volume_second_order(self, disk, ball_spec):
        exact = 4.0 * math.pi / 3.0
        for h in (0.1, 0.05):
            v = revolved_volume(meridian_mesh(disk, h), ball_spec.n_dim)
            assert abs(v - exact) <= 1.0 * h ** 2 * exact

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.8, 1.2), (1.0, 0.3)],
                             ids=["ball", "spheroid", "oblate"])
    def test_weighted_volume_order(self, a, b, n_dim):
        # the revolved r^(n-2)-weighted mesh measure against the closed
        # form pi^(n/2) / Gamma(n/2 + 1) a^(n-1) b, at h_target 0.05, 0.025
        # and 0.0125; the observed orders in mesh.h are 1.98-2.15
        closed = math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0 + 1.0) \
            * a ** (n_dim - 1) * b
        errors, hs = [], []
        for mesh in _revolved_meshes(a, b):
            v = revolved_volume(mesh, n_dim)
            errors.append(abs(v - closed))
            hs.append(mesh.h)
        orders = np.diff(np.log(errors)) / np.diff(np.log(hs))
        assert np.all(orders >= 1.9), orders


class TestBallOracle:
    def test_frozen_values(self):
        spec = ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=3)
        o = radial_ball_oracle(spec, 1.0, 3)
        assert o.slope(1.0) == pytest.approx(BALL_SLOPE_AT_1, abs=1e-12)
        assert o.v0 == pytest.approx(BALL_LEVEL, abs=1e-12)

    def test_interior_equation(self):
        # rho^(n-1) u' / sqrt(1+u'^2) = H rho^n / n
        spec = ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=3)
        o = radial_ball_oracle(spec, 1.0, 3)
        rho = np.linspace(0.05, 1.0, 40)
        s = o.slope(rho)
        lhs = rho ** 2 * s / np.sqrt(1 + s ** 2)
        assert np.allclose(lhs, 0.8 * rho ** 3 / 3.0, atol=1e-12)

    def test_neumann_compatible_h(self):
        c = 0.5
        H = 3 * c / math.sqrt(1 + c * c)
        spec = ProblemSpec(H=H, bc="neumann", c=c, n_dim=3)
        o = radial_ball_oracle(spec, 1.0, 3)
        assert o.slope(1.0) == pytest.approx(c, abs=1e-12)


class TestSolveMeridian:
    def test_robin_ball_vs_oracle(self, ball_spec, ball_mesh_005,
                                  ball_robin_005):
        field, report = ball_robin_005
        assert report.converged
        oracle = radial_ball_oracle(ball_spec, 1.0, 3)
        err = np.abs(field.values - oracle.at_points(ball_mesh_005.vertices))
        assert err.max() <= 5e-3
        assert field.values.max() < 0.0

    def test_neumann_ball_compatible(self, ball_mesh_005):
        c = 0.5
        H = 3 * c / math.sqrt(1 + c * c)
        spec = ProblemSpec(H=H, bc="neumann", c=c, n_dim=3)
        field, report = newton_solve(meridian_disc(spec, ball_mesh_005), spec)
        oracle = radial_ball_oracle(spec, 1.0, 3)
        exact = oracle.at_points(ball_mesh_005.vertices)
        exact -= exact.mean()
        assert np.abs(field.values - exact).max() <= 5e-3
        assert report.flux_scale == pytest.approx(1.0, abs=5e-3)


class TestCheckMonotone:
    def test_ball_solution_monotone(self, ball_robin_005):
        rep = check_monotone(ball_robin_005[0])
        assert rep.holds
        assert rep.min_value > 0

    def test_synthetic_decreasing_fails(self, ball_mesh_005):
        f = synth(ball_mesh_005, lambda r, z: -r ** 2)
        rep = check_monotone(f)
        assert not rep.holds
        assert rep.location[0] > 0

    def test_r_independent_marginal(self, ball_mesh_005):
        f = synth(ball_mesh_005, lambda r, z: z.copy())
        rep = check_monotone(f)
        assert rep.holds
        assert rep.marginal


class TestAxisHessian:
    def test_ball_entries(self, ball_spec, ball_robin_005):
        field, _ = ball_robin_005
        ah = axis_hessian(field, 3)
        target = ball_spec.H / 3.0
        assert np.allclose(ah.entries, target, rtol=0.10)
        assert abs(ah.entries.sum() - ball_spec.H) <= 0.10 * ball_spec.H
        assert abs(ah.cross_term) <= 0.1 * np.abs(ah.entries).min()

    def test_single_axis_crossing(self, ball_robin_005, ball_mesh_005):
        crossings = find_axis_critical(ball_robin_005[0])
        assert len(crossings) == 1
        assert abs(crossings[0]) <= 2 * ball_mesh_005.h

    def test_spheroid_robin(self):
        spec = ProblemSpec(H=0.5, bc="robin", alpha=1.0, n_dim=3)
        mesh = meridian_mesh(make_ellipse(0.7, 1.2), 0.05)
        field, _ = newton_solve(meridian_disc(spec, mesh), spec)
        ah = axis_hessian(field, 3)
        assert np.all(ah.entries > 0)
        assert abs(ah.cross_term) <= 0.1 * np.abs(ah.entries).min()
        assert check_monotone(field).holds

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    def test_transverse_entry_within_one_percent(self, ball_mesh_00125,
                                                 n_dim):
        # the closed form's v_rr on the axis is lim slope(r) / r = H / n
        spec = ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=n_dim)
        field, _ = newton_solve(meridian_disc(spec, ball_mesh_00125), spec)
        oracle = radial_ball_oracle(spec, 1.0, n_dim)
        v_rr = float(oracle.slope(1e-8)) / 1e-8
        entries = axis_hessian(field, n_dim).entries
        assert entries[:-1] == pytest.approx(v_rr, rel=0.01)

    def test_no_crossing_raises(self, ball_mesh_005):
        f = synth(ball_mesh_005, lambda r, z: z.copy())
        with pytest.raises(NoAxisCriticalError):
            axis_hessian(f, 3)


class TestAxialNodalSet:
    def test_single_axis_to_boundary_curve(self, ball_robin_005,
                                           ball_mesh_005):
        field, _ = ball_robin_005
        vz = ScalarField(ball_mesh_005, recover_gradient(field)[:, 1])
        ns = trace_nodal_set(vz)
        assert len(ns.arcs) == 1
        arc = ns.arcs[0]
        ends_r = sorted([arc[0][0], arc[-1][0]])
        assert ends_r[0] <= 2 * ball_mesh_005.h          # touches the axis
        assert ends_r[1] >= 1.0 - 2 * ball_mesh_005.h    # reaches the rim


ROUNDED_RECTANGLE = [[-1.0, -0.6], [1.0, -0.6], [1.0, 0.6], [-1.0, 0.6]]


@pytest.mark.filterwarnings("ignore:rounded polygon")
class TestRevolvedProfiles:
    """Any convex section that is its own mirror image in the axis is a
    meridian profile: a cylinder with rounded rims (a revolved rounded
    rectangle) meshes, solves and passes the suite for n = 3...6."""

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    def test_rounded_rectangle_passes_suite(self, n_dim):
        run = pipeline.setup({
            "domain": {"type": "rounded_polygon",
                       "vertices": ROUNDED_RECTANGLE, "r": 0.3},
            "problem": {"H": 0.8, "bc": "robin", "alpha": 1.0,
                        "n_dim": n_dim},
            "mesh": {"h_target": 0.025}})
        assert np.all(run.mesh.vertices[:, 0] >= 0.0)
        field, report, _ = pipeline.solve(run)
        assert report.converged
        report = run_suite(run, field, [])
        assert report.verdict == "pass", [
            (p.name, p.status) for p in report.properties]

    @pytest.mark.parametrize("vertices", [
        [[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]],
        [[-1.0, 0.0], [1.0, 0.0], [0.3, 1.8]],
        [[-1.0, -0.6], [1.1, -0.6], [1.0, 0.6], [-1.0, 0.6]],
    ], ids=["off-axis", "skew-apex", "one-corner-moved"])
    def test_rejects_asymmetric_profile(self, vertices):
        with pytest.raises(InvalidParameterError, match="axis x1 = 0"):
            meridian_mesh(make_rounded_polygon(vertices, 0.2), 0.05)


class TestProblemValidation:
    def test_rejects_bad_axes(self):
        with pytest.raises(InvalidParameterError):
            meridian_mesh(make_ellipse(-1.0, 1.0), 0.1)
