import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp

import pmclab.solver
import pmclab.sparse

from pmclab.assembly import (Discretization, ProblemSpec, ScalarField,
                             jacobian, neumann_gate, residual)
from pmclab.assembly import compatible_scale
from pmclab.errors import (InfeasibleProblemError, InvalidParameterError,
                           LinearSolveFailure, SolverFailure)
from pmclab.geometry import triangulate
from pmclab.solver import (_KeptFactor, homotopy_solve, linear_solve,
                           newton_solve)

from oracles import direct_solve_reference, radial_disk_oracle, scipy_csr

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


def stiffness(mesh):
    """The P1 stiffness matrix, singular with the constants as null space:
    sum over the x and y gradient operators G of G^T diag(cell areas) G."""
    area = sp.diags(mesh.cell_areas)
    return sum(scipy_csr(g).T @ area @ scipy_csr(g)
               for g in mesh.gradient).tocsr()


class TestLinearSolve:
    def test_identity(self, rng):
        A = sp.identity(40, format="csr")
        b = rng.standard_normal(40)
        assert np.allclose(linear_solve(A, b)[0], b)

    def test_singular_without_constraint_fails(self, disk_mesh_02, rng):
        m = disk_mesh_02
        A = stiffness(m)
        with pytest.raises(LinearSolveFailure, match="singular"):
            linear_solve(A, rng.standard_normal(m.n_vertices))

    def test_neumann_step_matches_dense_bordered_reference(self, disk_mesh_02,
                                                           rng):
        # the bordered Neumann system [[J, -E], [e^T, 0]] at a flux scale
        # away from the compatible one is regular: GMRES meets its dense
        # solve, and the correction leaves the last vertex in place
        m = disk_mesh_02
        n = m.n_vertices
        spec = ProblemSpec.neumann(0.6, 0.5)
        disc = Discretization(m)
        for _ in range(5):
            u = ScalarField(m, 0.4 * rng.standard_normal(n))
            s = 0.7 * compatible_scale(u, spec, disc)
            A = jacobian(u, spec, disc, s)
            for b in (-residual(u, spec, disc, s),
                      rng.standard_normal(n) + 0.3):
                b = np.append(b, 0.0)
                x, _ = linear_solve(A, b)
                ref = np.linalg.solve(scipy_csr(A).toarray(), b)
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
                assert abs(x[n - 1]) <= 1e-11 * np.linalg.norm(b)


def _recorded_systems(monkeypatch, solve):
    """The (A, b) of every linear solve made while ``solve()`` runs."""
    systems = []
    inner = pmclab.solver.linear_solve

    def record(A, b, **kwargs):
        systems.append((A, np.array(b)))
        return inner(A, b, **kwargs)

    monkeypatch.setattr(pmclab.solver, "linear_solve", record)
    solve()
    monkeypatch.undo()
    return systems


class _CountingLU:
    """A kept LU that counts its applications."""

    def __init__(self, lu):
        self.lu, self.shape, self.applications = lu, lu.shape, 0

    def solve(self, rhs):
        self.applications += 1
        return self.lu.solve(rhs)


def _checked_gmres(monkeypatch):
    """Check every preconditioned GMRES call made from now on: it applies
    the kept LU exactly once per Krylov iteration, and it returns x only
    with ||rhs - A x|| <= 1e-11 ||rhs||.  Returns the list that collects
    the Krylov iterations of the calls."""
    calls = []
    inner = pmclab.solver._preconditioned_gmres

    def checked(lu, A, rhs):
        counting = _CountingLU(lu)
        x, iterations = inner(counting, A, rhs)
        assert counting.applications == iterations
        if x is not None:
            assert np.linalg.norm(rhs - A @ x) <= 1e-11 * np.linalg.norm(rhs)
        calls.append(iterations)
        return x, iterations

    monkeypatch.setattr(pmclab.solver, "_preconditioned_gmres", checked)
    return calls


def _singular_cases(mesh, rng):
    """Singular systems (A, b): the stiffness matrix, and a bordered
    Neumann Jacobian without its flux column or without its gauge row."""
    n = mesh.n_vertices
    A = jacobian(ScalarField(mesh, 0.3 * mesh.vertices[:, 0] ** 2),
                 ProblemSpec.neumann(0.6, 0.5), Discretization(mesh))
    A = scipy_csr(A).tolil()
    no_column, no_row = A.copy(), A.copy()
    no_column[:, n] = 0.0
    no_row[n, :] = 0.0
    return [(stiffness(mesh), rng.standard_normal(n)),
            *((B.tocsr(), rng.standard_normal(n + 1))
              for B in (no_column, no_row))]


class TestKeptFactor:
    """A kept LU preconditions GMRES on the later systems of one solve; the
    results must be those of a direct sparse solve, and a factor that does
    not fit must fall back to refactoring without changing any outcome."""

    def _replay(self, monkeypatch, systems):
        gmres_calls = _checked_gmres(monkeypatch)
        kept = _KeptFactor()
        infos = []
        for A, b in systems:
            x, info = linear_solve(A, b, kept=kept)
            ref = direct_solve_reference(A, b)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
            infos.append(info)
        # one GMRES run per system: the kept LU never missed
        assert gmres_calls == [i["krylov_iterations"] for i in infos]
        return infos

    def test_robin_ellipse_homotopy_systems(self, monkeypatch,
                                            ellipse_mesh_005,
                                            ellipse_robin_spec):
        systems = _recorded_systems(monkeypatch, lambda: homotopy_solve(
            Discretization(ellipse_mesh_005), ellipse_robin_spec,
            [round(0.1 * k, 10) for k in range(11)]))
        assert len(systems) == 12
        infos = self._replay(monkeypatch, systems)
        assert [i["factored"] for i in infos] == [True] + [False] * 11
        # the fresh single-precision LU of the first system leaves GMRES a
        # few iterations from double precision
        assert infos[0]["krylov_iterations"] <= 3
        assert all(i["krylov_iterations"] > 0 for i in infos[1:])

    def test_neumann_disk_systems(self, monkeypatch, disk_mesh_005,
                                  neumann_spec):
        systems = _recorded_systems(
            monkeypatch,
            lambda: newton_solve(Discretization(disk_mesh_005), neumann_spec))
        assert len(systems) >= 3
        n = disk_mesh_005.n_vertices
        assert all(isinstance(A, pmclab.sparse.Csr)
                   and A.shape == (n + 1, n + 1) and b[n] == 0.0
                   for A, b in systems)
        infos = self._replay(monkeypatch, systems)
        assert infos[0]["factored"]
        assert not any(i["factored"] for i in infos[1:])
        assert all(i["krylov_iterations"] > 0 for i in infos)

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_unrelated_factor_falls_back(self, disk_mesh_01, rng, bc):
        m = disk_mesh_01
        n = m.n_vertices
        spec = (ProblemSpec.robin(0.8, 1.0) if bc == "robin"
                else ProblemSpec.neumann(0.6, 0.5))
        field = ScalarField(m, 0.3 * rng.standard_normal(n))
        disc = Discretization(m)
        s_hat = compatible_scale(field, spec, disc) if bc == "neumann" \
            else 1.0
        A = jacobian(field, spec, disc, s_hat)
        b = -residual(field, spec, disc, s_hat)
        if bc == "neumann":
            b = np.append(b, 0.0)
        kept = _KeptFactor()
        unrelated = sp.diags(rng.uniform(1.0, 1e3, A.shape[0]), format="csr")
        linear_solve(unrelated, rng.standard_normal(A.shape[0]), kept=kept)
        stale = kept.lu
        x, info = linear_solve(A, b, kept=kept)
        # the missed GMRES run on the stale LU is counted with the fresh one
        assert info["factored"] and info["krylov_iterations"] > 1
        assert kept.lu is not stale and kept.lu.shape == A.shape
        ref = direct_solve_reference(A, b)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
        # the new factor is kept and now preconditions the same system
        x2, info2 = linear_solve(A, b, kept=kept)
        assert not info2["factored"] and info2["krylov_iterations"] > 0
        assert np.linalg.norm(x2 - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_neumann_stale_factor_of_other_iterate(self, monkeypatch,
                                                   disk_mesh_01):
        # a Neumann solve keeps the (N+1) x (N+1) LU of the bordered
        # Jacobian; the LU of one iterate preconditions the next iterate's
        # system
        gmres_calls = _checked_gmres(monkeypatch)
        m = disk_mesh_01
        n = m.n_vertices
        spec = ProblemSpec.neumann(0.6, 0.5)
        disc = Discretization(m)
        r2 = np.sum(m.vertices ** 2, axis=1)
        iterates = (0.3 * r2, 0.35 * r2 + 0.05 * m.vertices[:, 0])
        kept = _KeptFactor()
        for k, values in enumerate(iterates):
            field = ScalarField(m, values)
            s_hat = compatible_scale(field, spec, disc)
            A = jacobian(field, spec, disc, s_hat)
            b = np.append(-residual(field, spec, disc, s_hat), 0.0)
            x, info = linear_solve(A, b, kept=kept)
            assert kept.lu.shape == (n + 1, n + 1)
            assert info["factored"] == (k == 0)
            ref = direct_solve_reference(A, b)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
        assert len(gmres_calls) == 2 and gmres_calls[1] > 1

    def test_factor_of_other_size_is_replaced(self, disk_mesh_02, rng):
        n = disk_mesh_02.n_vertices
        spec = ProblemSpec.robin(0.8, 1.0)
        A = jacobian(ScalarField(disk_mesh_02, np.zeros(n)), spec,
                     Discretization(disk_mesh_02))
        kept = _KeptFactor()
        linear_solve(sp.identity(n + 1, format="csr"), np.ones(n + 1),
                     kept=kept)
        b = rng.standard_normal(n)
        x, info = linear_solve(A, b, kept=kept)
        assert info["factored"] and kept.lu.shape == (n, n)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("case", range(3))
    def test_singular_cases_still_fail(self, disk_mesh_02, rng, case):
        # kept factor: the same matrix shifted by the identity, a good
        # preconditioner that must not let a singular system through
        A, b = _singular_cases(disk_mesh_02, rng)[case]
        block = (A + sp.identity(A.shape[0])).tocsr()
        kept = _KeptFactor()
        linear_solve(block, np.ones(block.shape[0]), kept=kept)
        assert kept.lu is not None
        with pytest.raises(LinearSolveFailure):
            linear_solve(A, b, kept=kept)


class TestFactor:
    """The preconditioner's LU: SuperLU in single precision on the
    diagonally scaled sparse part, with bounded pivoting."""

    def test_rough_field_fill_bounded(self, monkeypatch, ellipse,
                                      ellipse_robin_spec):
        # far from a smooth field the Jacobian loses diagonal dominance;
        # SuperLU's default threshold 1.0 then takes off-diagonal pivots
        # and fills about 39 x nnz here, the threshold 0.01 about 8 x
        mesh = triangulate(ellipse, 0.025)
        disc = Discretization(mesh)
        field = ScalarField(mesh, 0.1 * np.random.default_rng(0)
                            .standard_normal(mesh.n_vertices))
        A = jacobian(field, ellipse_robin_spec, disc)
        b = -residual(field, ellipse_robin_spec, disc)
        fills = []

        def splu(*args, **kwargs):
            lu = pmclab.sparse.splu(*args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(pmclab.solver, "spla", SimpleNamespace(splu=splu))
        x, info = linear_solve(A, b)
        assert info["factored"] and len(fills) == 1
        assert fills[0] <= 10 * A.nnz
        assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


class TestNewtonSolve:
    @pytest.mark.parametrize("case", ["robin", "neumann", "homotopy"])
    def test_one_jacobian_alive_at_a_time(self, monkeypatch, disk_mesh_01,
                                          case):
        # a Jacobian is released once its correction is solved, so the
        # next one is assembled beside the kept LU alone
        inner = pmclab.solver.jacobian
        handed_out, alive_at_call = [], []

        def tracked(*args, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in handed_out))
            J = inner(*args, **kwargs)
            handed_out.append(weakref.ref(J))
            return J

        monkeypatch.setattr(pmclab.solver, "jacobian", tracked)
        disc = Discretization(disk_mesh_01)
        if case == "homotopy":
            homotopy_solve(disc, ProblemSpec.robin(0.8, 1.0), [0.0, 0.5, 1.0])
        else:
            newton_solve(disc, ProblemSpec.robin(0.8, 1.0) if case == "robin"
                         else ProblemSpec.neumann(0.6, 0.5))
        assert len(alive_at_call) >= 3
        assert alive_at_call == [0] * len(alive_at_call)
        assert all(ref() is None for ref in handed_out)

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
        field = ScalarField(mesh, np.zeros(mesh.n_vertices))
        norms = [np.linalg.norm(residual(field, spec, Discretization(mesh)))]
        u = field.values
        out, report = newton_solve(Discretization(mesh), spec)
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
        # sum of residual entries vanishes, so the flux integral at the
        # converged flux scale equals H times the discrete area within
        # solver tolerance
        field, report = neumann_disk_01
        from pmclab.assembly import boundary_flux
        mesh = field.mesh
        disc = Discretization(mesh)
        g0 = boundary_flux(field, neumann_spec, disc)
        total = float(np.sum(g0.mean(axis=1) * mesh.boundary_lengths)) \
            * report.flux_scale
        target = neumann_spec.H * mesh.cell_areas.sum()
        assert abs(total - target) <= 10 * 1e-10

    def test_determinism(self, disk_mesh_01, robin_spec):
        f1, r1 = newton_solve(Discretization(disk_mesh_01), robin_spec)
        f2, r2 = newton_solve(Discretization(disk_mesh_01), robin_spec)
        assert np.array_equal(f1.values, f2.values)
        assert r1 == r2

    def test_nonconvergence_raises(self, disk_mesh_02, monkeypatch):
        # graph solutions stop existing once t H R / 2 reaches 1; the solver
        # must surface either a Newton stall or a Jacobian breakdown
        monkeypatch.setattr(pmclab.solver, "_MAX_ITER", 12)
        spec = ProblemSpec.robin(2.6, 1.0)
        with pytest.raises((SolverFailure, LinearSolveFailure)) as exc:
            newton_solve(Discretization(disk_mesh_02), spec)
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
        # the secant predictor leaves one Newton correction per step but
        # the last; the t = 0 factor preconditions every later correction
        _, trace = ellipse_homotopy
        reports = [s.solve for s in trace.steps]
        assert [r.iterations for r in reports] == [1] * 10 + [2]
        assert sum(r.factorizations for r in reports) == 1
        krylov = [k for r in reports for k in r.krylov_iterations]
        assert len(krylov) == sum(r.iterations for r in reports)
        # the fresh single-precision t = 0 LU leaves that system a few
        # Krylov iterations
        assert krylov[0] <= 3 and all(k > 0 for k in krylov[1:])
        assert trace.halved_at == []

    def test_secant_start_beats_previous_field(self, monkeypatch,
                                               ellipse_mesh_005,
                                               ellipse_robin_spec):
        # from the third step on, each Newton solve starts from the secant
        # through the last two steps, closer to the new solution than the
        # last step's field is
        disc = Discretization(ellipse_mesh_005)
        solves = []
        inner = pmclab.solver.newton_solve

        def record(disc, spec, init=None, **kwargs):
            field, report = inner(disc, spec, init=init, **kwargs)
            solves.append((spec, init, field))
            return field, report

        monkeypatch.setattr(pmclab.solver, "newton_solve", record)
        homotopy_solve(disc, ellipse_robin_spec,
                       [round(0.1 * k, 10) for k in range(11)])
        assert len(solves) == 11
        assert solves[0][1] is None and solves[1][1] is solves[0][2]
        for (_, _, prev), (spec, init, _) in zip(solves[1:], solves[2:]):
            start = ScalarField(ellipse_mesh_005,
                                getattr(init, "values", init))
            assert np.abs(residual(start, spec, disc)).max() \
                < np.abs(residual(prev, spec, disc)).max()

    def test_failed_step_drops_kept_factor(self, disk_mesh_01, monkeypatch):
        # the jump to t = 1 fails three times and is halved each time; each
        # retry after a failure starts from a new factorization, the final
        # step reuses one
        monkeypatch.setattr(pmclab.solver, "_MAX_ITER", 4)
        spec = ProblemSpec.robin(1.6, 1.0)
        _, trace = homotopy_solve(Discretization(disk_mesh_01), spec,
                                  [0.0, 1.0])
        assert [s.t for s in trace.steps] == [0.0, 0.5, 0.75, 0.875, 1.0]
        assert trace.halved_at == [1.0, 1.0, 1.0]
        reports = [s.solve for s in trace.steps]
        assert [r.iterations for r in reports] == [1, 3, 3, 3, 3]
        for r in reports[1:-1]:
            assert r.factorizations == 1 and r.krylov_iterations[0] <= 3
        assert reports[-1].factorizations == 0

    def test_critical_point_near_center_on_disk(self, disk_mesh_01):
        spec = ProblemSpec.robin(0.8, 1.0)
        field, trace = homotopy_solve(Discretization(disk_mesh_01), spec,
                                      [0.0, 0.5, 1.0])
        for step in trace.steps:
            loc = step.records[0].location
            assert np.linalg.norm(loc) <= disk_mesh_01.h

    @pytest.mark.parametrize("spec", [ProblemSpec.robin(0.3, 1.0),
                                      ProblemSpec.neumann(0.6, 0.5)],
                             ids=["robin", "neumann"])
    def test_path_independence(self, disk_mesh_01, spec):
        # each Neumann step starts its flux scale from its predictor
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

    def test_failure_carries_partial_trace(self, disk_mesh_02, monkeypatch):
        # H too large for a graph at t = 1: continuation must fail but keep
        # the steps it completed
        monkeypatch.setattr(pmclab.solver, "_MAX_ITER", 12)
        spec = ProblemSpec.robin(2.6, 1.0)
        with pytest.raises(SolverFailure) as exc:
            homotopy_solve(Discretization(disk_mesh_02), spec, [0.0, 0.5, 1.0])
        assert exc.value.trace is not None
        assert len(exc.value.trace.steps) >= 1
        assert not exc.value.trace.completed
        for step in exc.value.trace.steps:
            assert step.t < 1.0
