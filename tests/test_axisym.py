import math

import numpy as np
import pytest

from pmclab.assembly import Discretization, ProblemSpec, ScalarField
from pmclab.axisym import (MeridianProblem, axis_hessian, axis_vertices,
                           check_monotone, find_axis_critical, meridian_mesh,
                           outer_flux_edges, radial_ball_oracle,
                           revolved_volume)
from pmclab.critical import recover_gradient
from pmclab.errors import InvalidParameterError, NoAxisCriticalError
from pmclab.nodal import trace_nodal_set
from pmclab.solver import newton_solve

# frozen closed-form values for the Robin ball R=1, alpha=1, H=0.8, n=3
BALL_SLOPE_AT_1 = 0.27668578554642986
BALL_LEVEL = -0.41247771184618975


def synth(mesh, fn):
    return ScalarField(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def meridian_disc(spec, mesh):
    return Discretization(mesh, spec.n_dim - 2, outer_flux_edges(mesh))


class TestMeridianMesh:
    def test_ball_half_disk(self, ball_problem, ball_mesh_005):
        m = ball_mesh_005
        assert np.all(m.vertices[:, 0] >= -1e-12)
        assert m.min_angle_deg() >= 20.0
        ax = axis_vertices(m)
        z = m.vertices[ax, 1]
        assert z.min() == pytest.approx(-1.0, abs=1e-12)
        assert z.max() == pytest.approx(1.0, abs=1e-12)

    def test_spheroid_mesh(self):
        m = meridian_mesh(MeridianProblem(0.7, 1.2), 0.1)
        assert m.vertices[:, 0].max() == pytest.approx(0.7, abs=0.05)
        assert abs(m.vertices[:, 1]).max() == pytest.approx(1.2, abs=1e-9)

    def test_vertex_scaling(self, ball_problem):
        m1 = meridian_mesh(ball_problem, 0.1)
        m2 = meridian_mesh(ball_problem, 0.05)
        assert 2.5 <= m2.n_vertices / m1.n_vertices <= 6.0

    def test_axis_edges_carry_no_flux(self, ball_mesh_005):
        m = ball_mesh_005
        outer = outer_flux_edges(m)
        axis = np.setdiff1d(np.arange(len(m.boundary_edges)), outer)
        r = m.vertices[:, 0]
        for e in axis:
            a, b = m.boundary_edges[e]
            assert r[a] < 1e-12 and r[b] < 1e-12

    def test_revolved_volume_second_order(self, ball_problem, ball_spec):
        exact = 4.0 * math.pi / 3.0
        for h in (0.1, 0.05):
            m = meridian_mesh(ball_problem, h)
            v = revolved_volume(meridian_disc(ball_spec, m))
            assert abs(v - exact) <= 1.0 * h ** 2 * exact


class TestBallOracle:
    def test_frozen_values(self):
        spec = ProblemSpec.robin(0.8, 1.0, n_dim=3)
        o = radial_ball_oracle(spec, 1.0, 3)
        assert o.slope(1.0) == pytest.approx(BALL_SLOPE_AT_1, abs=1e-12)
        assert o.v0 == pytest.approx(BALL_LEVEL, abs=1e-12)

    def test_interior_equation(self):
        # rho^(n-1) u' / sqrt(1+u'^2) = H rho^n / n
        spec = ProblemSpec.robin(0.8, 1.0, n_dim=3)
        o = radial_ball_oracle(spec, 1.0, 3)
        rho = np.linspace(0.05, 1.0, 40)
        s = o.slope(rho)
        lhs = rho ** 2 * s / np.sqrt(1 + s ** 2)
        assert np.allclose(lhs, 0.8 * rho ** 3 / 3.0, atol=1e-12)

    def test_neumann_compatible_h(self):
        c = 0.5
        H = 3 * c / math.sqrt(1 + c * c)
        spec = ProblemSpec.neumann(H, c, n_dim=3)
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
        spec = ProblemSpec.neumann(H, c, n_dim=3)
        field, report = newton_solve(meridian_disc(spec, ball_mesh_005), spec)
        oracle = radial_ball_oracle(spec, 1.0, 3)
        exact = oracle.at_points(ball_mesh_005.vertices)
        exact -= exact.mean()
        assert np.abs(field.values - exact).max() <= 5e-3
        assert report.flux_scale == pytest.approx(1.0, abs=5e-3)

    def test_n2_reduces_to_planar_assembly(self):
        spec = ProblemSpec.robin(0.8, 1.0, n_dim=2)
        mesh = meridian_mesh(MeridianProblem(1.0, 1.0), 0.1)
        f_meridian, _ = newton_solve(meridian_disc(spec, mesh), spec)
        f_planar, _ = newton_solve(
            Discretization(mesh, flux_edges=outer_flux_edges(mesh)), spec)
        assert np.abs(f_meridian.values - f_planar.values).max() <= 1e-8


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
        spec = ProblemSpec.robin(0.5, 1.0, n_dim=3)
        mesh = meridian_mesh(MeridianProblem(0.7, 1.2), 0.05)
        field, _ = newton_solve(meridian_disc(spec, mesh), spec)
        ah = axis_hessian(field, 3)
        assert np.all(ah.entries > 0)
        assert abs(ah.cross_term) <= 0.1 * np.abs(ah.entries).min()
        assert check_monotone(field).holds

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


class TestProblemValidation:
    def test_rejects_bad_axes(self):
        with pytest.raises(InvalidParameterError):
            MeridianProblem(-1.0, 1.0)
