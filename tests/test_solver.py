import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp

import pmclab.solver

from pmclab.assembly import (Discretization, ProblemSpec, RankOneJacobian,
                             ScalarField, jacobian, neumann_gate, residual)
from pmclab.errors import (InfeasibleProblemError, InvalidParameterError,
                           LinearSolveFailure, SolverFailure)
from pmclab.solver import (SolverOptions, _KeptFactor, homotopy_solve,
                           linear_solve, newton_solve, radial_disk_oracle)

# frozen closed-form values for the Robin disk problem R=1, alpha=1, H=0.8
ROBIN_SLOPE_AT_1 = 0.4364357804719848
ROBIN_LEVEL = -0.6451479329940648


class TestRadialOracle:
    def test_robin_frozen_values(self, robin_spec):
        o = radial_disk_oracle(robin_spec)
        assert o.slope(1.0) == pytest.approx(ROBIN_SLOPE_AT_1, abs=1e-12)
        assert o.v0 == pytest.approx(ROBIN_LEVEL, abs=1e-12)
        assert o(1.0) == pytest.approx(-ROBIN_SLOPE_AT_1, abs=1e-12)

    def test_closed_form_matches_quadrature_of_slope(self, robin_spec):
        o = radial_disk_oracle(robin_spec)
        for r in (0.3, 0.7, 1.0):
            integral, _ = scipy.integrate.quad(o.slope, 0.0, r)
            assert o(r) - o.v0 == pytest.approx(integral, abs=1e-10)

    def test_solves_the_ode(self, robin_spec):
        # r u' / sqrt(1 + u'^2) must equal H r^2 / 2
        o = radial_disk_oracle(robin_spec)
        r = np.linspace(0.01, 1.0, 50)
        s = o.slope(r)
        assert np.allclose(r * s / np.sqrt(1 + s ** 2),
                           robin_spec.H * r ** 2 / 2, atol=1e-12)

    def test_t0_paraboloid(self):
        spec = ProblemSpec.robin(0.8, 1.0, t=0.0)
        o = radial_disk_oracle(spec)
        # Poisson limit: v = 0.2 r^2 - 0.6
        assert o(0.0) == pytest.approx(-0.6, abs=1e-12)
        assert o(1.0) == pytest.approx(-0.4, abs=1e-12)

    def test_rejects_steep_data(self):
        with pytest.raises(InvalidParameterError):
            radial_disk_oracle(ProblemSpec.robin(2.5, 1.0))


class TestLinearSolve:
    def test_identity(self, rng):
        A = sp.identity(40, format="csr")
        b = rng.standard_normal(40)
        assert np.allclose(linear_solve(A, b), b)

    def test_mean_zero_constraint_compatible(self, disk_mesh_02, rng):
        m = disk_mesh_02
        spec0 = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        A = jacobian(ScalarField.zeros(m), spec0,
                     Discretization(m, flux_edges=[]))
        b = rng.standard_normal(m.n_vertices)
        b -= b.mean()
        x, info = linear_solve(A, b, constraint="mean-zero", return_info=True)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert not info["incompatible"]
        assert abs(x.mean()) <= 1e-12

    def test_mean_zero_constraint_incompatible(self, disk_mesh_02, rng):
        m = disk_mesh_02
        spec0 = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        A = jacobian(ScalarField.zeros(m), spec0,
                     Discretization(m, flux_edges=[]))
        b = rng.standard_normal(m.n_vertices) + 0.4
        x, info = linear_solve(A, b, constraint="mean-zero", return_info=True)
        assert info["incompatible"]
        target = b - b.mean()
        assert np.linalg.norm(A @ x - target) <= 1e-9 * np.linalg.norm(b)

    def test_singular_without_constraint_fails(self, disk_mesh_02, rng):
        m = disk_mesh_02
        spec0 = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        A = jacobian(ScalarField.zeros(m), spec0,
                     Discretization(m, flux_edges=[]))
        with pytest.raises(LinearSolveFailure):
            linear_solve(A, rng.standard_normal(m.n_vertices))


    def test_mean_zero_two_dimensional_nullspace_fails(self, disk_mesh_02,
                                                        rng):
        m = disk_mesh_02
        spec0 = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        K = jacobian(ScalarField.zeros(m), spec0,
                     Discretization(m, flux_edges=[]))
        A = sp.block_diag([K, K], format="csr")
        b = rng.standard_normal(A.shape[0])
        with pytest.raises(LinearSolveFailure):
            linear_solve(A, b - b.mean(), constraint="mean-zero")

    def test_mean_zero_nonconstant_left_null_vector_fails(self, disk_mesh_02,
                                                          rng):
        # D K keeps the constants as right null vector but its left null
        # vector is D^-1 1; the bordered system is regular, elimination
        # with lambda = mean(b) is not a stand-in for it
        m = disk_mesh_02
        spec0 = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        K = jacobian(ScalarField.zeros(m), spec0,
                     Discretization(m, flux_edges=[]))
        A = (sp.diags(rng.uniform(0.5, 2.0, m.n_vertices)) @ K).tocsr()
        assert np.abs(A @ np.ones(m.n_vertices)).max() <= 1e-12
        b = rng.standard_normal(m.n_vertices)
        with pytest.raises(LinearSolveFailure):
            linear_solve(A, b, constraint="mean-zero")

    def test_singular_rank_one_update_fails(self, rng):
        n = 10
        e0 = np.eye(n)[0]
        A = RankOneJacobian(sp.identity(n, format="csr"), e0, -e0)
        with pytest.raises(LinearSolveFailure, match="rank-one"):
            linear_solve(A, rng.standard_normal(n))

    def test_neumann_step_matches_dense_bordered_reference(self, disk_mesh_02,
                                                           rng):
        m = disk_mesh_02
        n = m.n_vertices
        spec = ProblemSpec.neumann(0.6, 0.5)
        disc = Discretization(m)
        for _ in range(5):
            u = ScalarField(m, 0.4 * rng.standard_normal(n))
            split = jacobian(u, spec, disc)
            dense = split.tocsr().toarray()
            bordered = np.block([[dense, np.ones((n, 1))],
                                 [np.ones((1, n)), np.zeros((1, 1))]])
            for b in (-residual(u, spec, disc), rng.standard_normal(n) + 0.3):
                x, info = linear_solve(split, b, constraint="mean-zero",
                                       return_info=True)
                ref = np.linalg.lstsq(bordered, np.append(b, 0.0),
                                      rcond=None)[0]
                assert np.linalg.norm(x - ref[:n]) \
                    <= 1e-10 * np.linalg.norm(ref[:n])
                assert info["multiplier"] == pytest.approx(
                    ref[n], rel=1e-10, abs=1e-12)


def _recorded_systems(monkeypatch, solve):
    """The (A, b, constraint) of every linear solve made while ``solve()``
    runs."""
    systems = []
    inner = pmclab.solver.linear_solve

    def record(A, b, constraint="none", **kwargs):
        systems.append((A, np.array(b), constraint))
        return inner(A, b, constraint=constraint, **kwargs)

    monkeypatch.setattr(pmclab.solver, "linear_solve", record)
    solve()
    monkeypatch.undo()
    return systems


def _singular_cases(mesh, rng):
    """The singular systems of TestLinearSolve: (A, b, constraint)."""
    n = mesh.n_vertices
    K = jacobian(ScalarField.zeros(mesh), ProblemSpec.neumann(0.6, 0.5, t=0.0),
                 Discretization(mesh, flux_edges=[]))
    stacked = sp.block_diag([K, K], format="csr")
    b2 = rng.standard_normal(2 * n)
    e0 = np.eye(n)[0]
    return [
        (K, rng.standard_normal(n), "none"),
        (stacked, b2 - b2.mean(), "mean-zero"),
        ((sp.diags(rng.uniform(0.5, 2.0, n)) @ K).tocsr(),
         rng.standard_normal(n), "mean-zero"),
        (RankOneJacobian(sp.identity(n, format="csr"), e0, -e0),
         rng.standard_normal(n), "none"),
    ]


class TestKeptFactor:
    """A kept LU preconditions GMRES on the later systems of one solve; the
    results must be those of a fresh direct solve, and a factor that does
    not fit must fall back to refactoring without changing any outcome."""

    def _replay(self, systems):
        kept = _KeptFactor()
        infos = []
        for A, b, constraint in systems:
            x, info = linear_solve(A, b, constraint=constraint,
                                   return_info=True, kept=kept)
            ref, ref_info = linear_solve(A, b, constraint=constraint,
                                         return_info=True)
            assert ref_info["factored"] and ref_info["krylov_iterations"] == 0
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
            assert info["multiplier"] == ref_info["multiplier"]
            infos.append(info)
        return infos

    def test_robin_ellipse_homotopy_systems(self, monkeypatch,
                                            ellipse_mesh_005,
                                            ellipse_robin_spec):
        systems = _recorded_systems(monkeypatch, lambda: homotopy_solve(
            Discretization(ellipse_mesh_005), ellipse_robin_spec,
            [round(0.1 * k, 10) for k in range(11)]))
        assert len(systems) == 18
        infos = self._replay(systems)
        assert [i["factored"] for i in infos] == [True] + [False] * 17
        assert all(i["krylov_iterations"] > 0 for i in infos[1:])

    def test_neumann_disk_systems(self, monkeypatch, disk_mesh_005,
                                  neumann_spec):
        systems = _recorded_systems(
            monkeypatch,
            lambda: newton_solve(Discretization(disk_mesh_005), neumann_spec))
        assert len(systems) >= 3
        assert all(isinstance(A, RankOneJacobian) and c == "mean-zero"
                   for A, _, c in systems)
        infos = self._replay(systems)
        assert infos[0]["factored"]
        assert not any(i["factored"] for i in infos[1:])

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_unrelated_factor_falls_back(self, disk_mesh_01, rng, bc):
        m = disk_mesh_01
        n = m.n_vertices
        if bc == "robin":
            spec, constraint = ProblemSpec.robin(0.8, 1.0), "none"
        else:
            spec, constraint = ProblemSpec.neumann(0.6, 0.5), "mean-zero"
        field = ScalarField(m, 0.3 * rng.standard_normal(n))
        disc = Discretization(m)
        A = jacobian(field, spec, disc)
        b = -residual(field, spec, disc)
        size = n if constraint == "none" else n - 1
        kept = _KeptFactor()
        unrelated = sp.diags(rng.uniform(1.0, 1e3, size), format="csr")
        linear_solve(unrelated, rng.standard_normal(size), kept=kept)
        stale = kept.lu
        x, info = linear_solve(A, b, constraint=constraint, return_info=True,
                               kept=kept)
        assert info["factored"] and info["krylov_iterations"] == 0
        assert kept.lu is not stale
        ref = linear_solve(A, b, constraint=constraint)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        # the new factor is kept and now preconditions the same system
        x2, info2 = linear_solve(A, b, constraint=constraint,
                                 return_info=True, kept=kept)
        assert not info2["factored"] and info2["krylov_iterations"] > 0
        assert np.linalg.norm(x2 - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_factor_of_other_size_is_replaced(self, disk_mesh_02, rng):
        n = disk_mesh_02.n_vertices
        spec = ProblemSpec.robin(0.8, 1.0)
        A = jacobian(ScalarField.zeros(disk_mesh_02), spec,
                     Discretization(disk_mesh_02))
        kept = _KeptFactor()
        linear_solve(sp.identity(n + 1, format="csr"), np.ones(n + 1),
                     kept=kept)
        b = rng.standard_normal(n)
        x, info = linear_solve(A, b, return_info=True, kept=kept)
        assert info["factored"] and kept.lu.shape == (n, n)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("case", range(4))
    def test_singular_cases_still_fail(self, disk_mesh_02, rng, case):
        # kept factor: the same block shifted by the identity, a good
        # preconditioner that must not let a singular system through
        A, b, constraint = _singular_cases(disk_mesh_02, rng)[case]
        local = A.local if isinstance(A, RankOneJacobian) else A
        block = sp.csr_matrix(local) + sp.identity(A.shape[0])
        if constraint == "mean-zero":
            block = block[:-1, :-1]
        kept = _KeptFactor()
        linear_solve(block, np.ones(block.shape[0]), kept=kept)
        assert kept.lu is not None
        with pytest.raises(LinearSolveFailure):
            linear_solve(A, b, constraint=constraint, kept=kept)


class TestNewtonSolve:
    def test_robin_disk_vs_oracle(self, disk_mesh_01, robin_spec,
                                  robin_disk_01):
        field, report = robin_disk_01
        assert report.converged
        oracle = radial_disk_oracle(robin_spec)
        err = np.abs(field.values
                     - oracle.at_points(disk_mesh_01.vertices)).max()
        assert err <= 5e-3

    def test_neumann_disk_vs_oracle(self, disk_mesh_01, neumann_spec,
                                    neumann_disk_01):
        field, report = neumann_disk_01
        assert report.converged
        assert report.normalization == "mean-zero"
        assert abs(field.values.mean()) <= 1e-12
        oracle = radial_disk_oracle(neumann_spec)
        exact = oracle.at_points(disk_mesh_01.vertices)
        exact -= exact.mean()
        assert np.abs(field.values - exact).max() <= 5e-3

    def test_neumann_flux_rescale_reported(self, neumann_disk_01):
        _, report = neumann_disk_01
        # H = 0.6 with c = 0.5 is incompatible; the measured rescale sits
        # near H |Omega| / (cap L) = 0.3/0.4472
        assert report.flux_scale == pytest.approx(0.6708, abs=5e-3)

    def test_infeasible_neumann_rejected(self, disk_mesh_01):
        with pytest.raises(InfeasibleProblemError):
            newton_solve(Discretization(disk_mesh_01),
                         ProblemSpec.neumann(1.0, 0.5))

    def test_mesh_convergence_order(self, disk_mesh_01, disk_mesh_005,
                                    robin_spec, robin_disk_01,
                                    robin_disk_005):
        oracle = radial_disk_oracle(robin_spec)
        e1 = np.abs(robin_disk_01[0].values
                    - oracle.at_points(disk_mesh_01.vertices)).max()
        e2 = np.abs(robin_disk_005[0].values
                    - oracle.at_points(disk_mesh_005.vertices)).max()
        assert e1 / e2 >= 3.0

    def test_monotone_residual_damping(self, disk_mesh_01):
        # steep data forces damping; accepted steps must not increase ||F||_2
        spec = ProblemSpec.robin(1.6, 0.5)
        mesh = disk_mesh_01
        field = ScalarField.zeros(mesh)
        norms = [np.linalg.norm(residual(field, spec, Discretization(mesh)))]
        u = field.values
        from pmclab.solver import SolverOptions
        opts = SolverOptions()
        out, report = newton_solve(Discretization(mesh), spec, opts=opts)
        assert report.converged
        assert all(0 < b <= 1 for b in report.damping_history)

    def test_gauge_invariance_of_converged_neumann(self, neumann_disk_01,
                                                   neumann_spec):
        field, _ = neumann_disk_01
        disc = Discretization(field.mesh)
        r0 = residual(field, neumann_spec, disc)
        shifted = ScalarField(field.mesh, field.values + 1.234)
        assert np.abs(residual(shifted, neumann_spec, disc) - r0).max() \
            <= 1e-12

    def test_flux_identity_at_convergence(self, neumann_disk_01,
                                          neumann_spec):
        # sum of residual entries vanishes, so the imposed flux integral
        # equals H times the discrete area within solver tolerance
        field, report = neumann_disk_01
        from pmclab.assembly import boundary_flux, flux_scale
        mesh = field.mesh
        disc = Discretization(mesh)
        g0 = boundary_flux(field, neumann_spec, disc)
        s_hat = flux_scale(field, neumann_spec, disc)
        total = float(np.sum(g0.mean(axis=1) * mesh.boundary_lengths)) * s_hat
        target = neumann_spec.H * mesh.cell_areas.sum()
        assert abs(total - target) <= 10 * 1e-10

    def test_determinism(self, disk_mesh_01, robin_spec):
        f1, r1 = newton_solve(Discretization(disk_mesh_01), robin_spec)
        f2, r2 = newton_solve(Discretization(disk_mesh_01), robin_spec)
        assert np.array_equal(f1.values, f2.values)
        assert r1.as_dict() == r2.as_dict()

    def test_nonconvergence_raises(self, disk_mesh_02):
        # graph solutions stop existing once t H R / 2 reaches 1; the solver
        # must surface either a Newton stall or a Jacobian breakdown
        spec = ProblemSpec.robin(2.6, 1.0)
        with pytest.raises((SolverFailure, LinearSolveFailure)) as exc:
            newton_solve(Discretization(disk_mesh_02), spec,
                         opts=SolverOptions(max_iter=12))
        if isinstance(exc.value, SolverFailure):
            assert exc.value.report is not None
            assert not exc.value.report.converged


class TestPoissonInit:
    """The linear t = 0 solve that starts a homotopy: a Newton solve of
    ``spec.at_t(0.0)``.  Neumann data is generically incompatible at t = 0
    (the flux integral c L need not match H |Omega|); its raw
    incompatibility c L - H |Omega| is read from the mesh measures."""

    @staticmethod
    def _incompatibility(mesh, spec0):
        disc = Discretization(mesh)
        return float(spec0.c * disc.boundary_measure - spec0.H * disc.volume)

    def test_robin_disk_values(self, disk_mesh_005, robin_spec):
        field, _ = newton_solve(Discretization(disk_mesh_005),
                                robin_spec.at_t(0.0))
        m = disk_mesh_005
        center = int(np.argmin(np.linalg.norm(m.vertices, axis=1)))
        rim = int(np.argmax(np.linalg.norm(m.vertices, axis=1)))
        assert field.values[center] == pytest.approx(-0.6, abs=2e-3)
        assert field.values[rim] == pytest.approx(-0.4, abs=2e-3)

    def test_neumann_compatible_paraboloid(self, disk_mesh_01):
        H = 0.8
        spec0 = ProblemSpec.neumann(H, H / 2.0).at_t(0.0)   # c = H R / 2
        field, _ = newton_solve(Discretization(disk_mesh_01), spec0)
        assert abs(self._incompatibility(disk_mesh_01, spec0)) <= 0.02
        m = disk_mesh_01
        r2 = np.sum(m.vertices ** 2, axis=1)
        exact = H * r2 / 4.0
        exact -= exact.mean()
        assert np.abs(field.values - exact).max() <= 5e-3

    def test_neumann_incompatible_reported(self, disk_mesh_01, neumann_spec):
        spec0 = neumann_spec.at_t(0.0)
        newton_solve(Discretization(disk_mesh_01), spec0)
        assert self._incompatibility(disk_mesh_01, spec0) == pytest.approx(
            1.2566370614359172, abs=0.01)


class TestCompatibleNeumann:
    """The Neumann datum H = 2c / (R sqrt(1 + c^2)) sits on the analytic
    flux bound and is matched by the radial profile: the mesh measures pass
    the gate, and both the compatibility rescale and the vertex error
    converge at second order."""

    def test_second_order(self, disk_mesh_02, disk_mesh_01, disk_mesh_005):
        c = 0.5
        spec = ProblemSpec.neumann(2.0 * c / math.sqrt(1.0 + c * c), c)
        oracle = radial_disk_oracle(spec)
        scale_dev, errors = [], []
        for mesh in (disk_mesh_02, disk_mesh_01, disk_mesh_005):
            disc = Discretization(mesh)
            assert neumann_gate(disc, spec).feasible
            field, report = newton_solve(disc, spec)
            scale_dev.append(abs(report.flux_scale - 1.0))
            exact = oracle.at_points(mesh.vertices)
            errors.append(float(np.abs(field.values - exact
                                       + exact.mean()).max()))
        for seq in (scale_dev, errors):
            assert seq[0] >= 3.0 * seq[1] and seq[1] >= 3.0 * seq[2], seq


class TestHomotopy:
    def test_trace_counts_on_ellipse(self, ellipse_homotopy):
        field, trace = ellipse_homotopy
        assert trace.completed
        assert len(trace.steps) == 11
        ts = [s.t for s in trace.steps]
        assert ts == sorted(ts)
        for step in trace.steps:
            assert step.n_minima == 1
            assert step.n_saddles == 0
            assert step.morse_ok

    def test_one_factorization_on_ellipse(self, ellipse_homotopy):
        # Newton counts of the direct-LU solver; the t = 0 factor
        # preconditions every later correction
        _, trace = ellipse_homotopy
        reports = [s.solve for s in trace.steps]
        assert [r.iterations for r in reports] == [1, 1, 1, 1] + [2] * 7
        assert sum(r.factorizations for r in reports) == 1
        krylov = [k for r in reports for k in r.krylov_iterations]
        assert len(krylov) == sum(r.iterations for r in reports)
        assert krylov[0] == 0 and all(k > 0 for k in krylov[1:])

    def test_failed_step_drops_kept_factor(self, disk_mesh_01):
        # the jump to t = 1 fails four times; each retry after a failure
        # starts from a new factorization, the final step reuses one
        spec = ProblemSpec.robin(1.6, 1.0)
        _, trace = homotopy_solve(Discretization(disk_mesh_01), spec,
                                  [0.0, 1.0],
                                  opts=SolverOptions(max_iter=4))
        assert [s.t for s in trace.steps] == [0.0, 0.5, 0.75, 0.875, 0.9375,
                                              1.0]
        reports = [s.solve for s in trace.steps]
        assert [r.iterations for r in reports] == [1, 3, 3, 3, 3, 3]
        for r in reports[1:-1]:
            assert r.factorizations == 1 and r.krylov_iterations[0] == 0
        assert reports[-1].factorizations == 0

    def test_critical_point_near_center_on_disk(self, disk_mesh_01):
        spec = ProblemSpec.robin(0.8, 1.0)
        field, trace = homotopy_solve(Discretization(disk_mesh_01), spec,
                                      [0.0, 0.5, 1.0])
        for step in trace.steps:
            loc = step.records[0].location
            assert np.linalg.norm(loc) <= disk_mesh_01.h

    def test_path_independence(self, disk_mesh_01):
        spec = ProblemSpec.robin(0.3, 1.0)
        f_direct, _ = homotopy_solve(Discretization(disk_mesh_01), spec, [1.0])
        f_path, _ = homotopy_solve(Discretization(disk_mesh_01), spec,
                                   [round(0.1 * k, 10) for k in range(11)])
        assert np.abs(f_direct.values - f_path.values).max() <= 1e-8

    def test_schedule_validation(self, disk_mesh_02):
        spec = ProblemSpec.robin(0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            homotopy_solve(Discretization(disk_mesh_02), spec, [0.0, 0.5])
        with pytest.raises(InvalidParameterError):
            homotopy_solve(Discretization(disk_mesh_02), spec, [0.5, 0.4, 1.0])

    def test_failure_carries_partial_trace(self, disk_mesh_02):
        # H too large for a graph at t = 1: continuation must fail but keep
        # the steps it completed
        spec = ProblemSpec.robin(2.6, 1.0)
        with pytest.raises(SolverFailure) as exc:
            homotopy_solve(Discretization(disk_mesh_02), spec, [0.0, 0.5, 1.0],
                           opts=SolverOptions(max_iter=12))
        assert exc.value.trace is not None
        assert len(exc.value.trace.steps) >= 1
        assert not exc.value.trace.completed
        for step in exc.value.trace.steps:
            assert step.t < 1.0
