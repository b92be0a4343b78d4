import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pmclab.assembly import (Discretization, ProblemSpec, RankOneJacobian,
                             ScalarField, boundary_flux, ellipticity_margins,
                             flux_scale, jacobian, neumann_gate, residual)
from pmclab.assembly import _QXI
from pmclab.axisym import (MeridianProblem, meridian_mesh, outer_flux_edges,
                           revolved_volume)
from pmclab.errors import InfeasibleProblemError, InvalidParameterError
from pmclab.geometry import triangulate
from pmclab.solver import newton_solve, radial_disk_oracle

CAP = 0.5 / math.sqrt(1.25)          # c / sqrt(1 + c^2) for c = 0.5


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec.neumann(-1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            ProblemSpec.neumann(0.5, -0.1)
        with pytest.raises(InvalidParameterError):
            ProblemSpec.robin(0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            ProblemSpec(H=0.5, bc="robin", alpha=1.0, t=1.5)
        with pytest.raises(InvalidParameterError):
            ProblemSpec(H=0.5, bc="robin", alpha=1.0, c=0.3)

    def test_rejects_low_dimension(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec.robin(0.5, 1.0, n_dim=1)

    def test_at_t(self):
        s = ProblemSpec.robin(0.5, 1.0)
        assert s.at_t(0.25).t == 0.25
        assert s.at_t(0.25).alpha == 1.0


class TestBoundaryFlux:
    def test_neumann_plugin(self, disk_mesh_02):
        spec = ProblemSpec.neumann(0.6, 0.5)
        field = ScalarField.zeros(disk_mesh_02)
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.allclose(g, 0.4472135954999579, atol=1e-12)

    def test_robin_plugin(self, disk_mesh_02):
        spec = ProblemSpec.robin(0.6, 1.0)
        field = ScalarField(disk_mesh_02,
                            np.full(disk_mesh_02.n_vertices, -0.5))
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.allclose(g, 0.4472135954999579, atol=1e-12)

    def test_neumann_t0_degenerates_to_c(self, disk_mesh_02):
        spec = ProblemSpec.neumann(0.6, 0.5, t=0.0)
        field = ScalarField.zeros(disk_mesh_02)
        assert np.allclose(
            boundary_flux(field, spec, Discretization(disk_mesh_02)), 0.5,
            atol=1e-15)

    def test_tangential_derivative_lowers_flux(self, disk_mesh_02):
        spec = ProblemSpec.neumann(0.6, 0.5)
        field = ScalarField(disk_mesh_02, disk_mesh_02.vertices[:, 1].copy())
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.all(g <= 0.4472135954999579 + 1e-15)
        assert g.min() < 0.44


class TestResidual:
    def test_constant_field_neumann_compatible(self, disk_mesh_02):
        m = disk_mesh_02
        # compatible data computed from the discrete measures makes the
        # flux rescale exactly one, so boundary rows carry cap * edge mass
        L_h = m.boundary_lengths.sum()
        area_h = m.cell_areas.sum()
        H = CAP * L_h / area_h
        spec = ProblemSpec.neumann(H, 0.5)
        field = ScalarField(m, np.full(m.n_vertices, 3.7))
        disc = Discretization(m)
        assert flux_scale(field, spec, disc) == pytest.approx(1.0, abs=1e-12)
        r = residual(field, spec, disc)
        interior = ~m.is_boundary_vertex
        # gradient term vanishes: interior entries equal the H load exactly
        load = np.zeros(m.n_vertices)
        for i in range(3):
            np.add.at(load, m.cells[:, i], H * m.cell_areas / 3.0)
        assert np.allclose(r[interior], load[interior], atol=1e-14)
        assert np.all(r[interior] > 0)
        # boundary entries: load minus cap-weighted edge masses
        emass = np.zeros(m.n_vertices)
        np.add.at(emass, m.boundary_edges[:, 0], m.boundary_lengths / 2.0)
        np.add.at(emass, m.boundary_edges[:, 1], m.boundary_lengths / 2.0)
        assert np.allclose(r[~interior], (load - CAP * emass)[~interior],
                           atol=1e-12)

    def test_oracle_residual_converges(self, disk, robin_spec):
        errs = []
        for h in (0.2, 0.1, 0.05):
            m = triangulate(disk, h)
            oracle = radial_disk_oracle(robin_spec)
            f = ScalarField(m, oracle.at_points(m.vertices))
            errs.append(np.abs(residual(f, robin_spec,
                                        Discretization(m))).max())
        assert errs[0] > errs[1] > errs[2]
        # first-order decay at least
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_poisson_quadratic_interior_second_order(self, disk):
        spec0 = ProblemSpec.robin(0.8, 1.0, t=0.0)
        errs = []
        for h in (0.2, 0.1):
            m = triangulate(disk, h)
            v = 0.2 * np.sum(m.vertices ** 2, axis=1) - 0.6
            r = residual(ScalarField(m, v), spec0, Discretization(m))
            errs.append(np.abs(r[~m.is_boundary_vertex]).max())
        assert errs[0] / errs[1] >= 3.0

    def test_neumann_gauge_invariance(self, disk_mesh_01, neumann_spec, rng):
        m = disk_mesh_01
        u = ScalarField(m, 0.3 * rng.standard_normal(m.n_vertices))
        disc = Discretization(m)
        r0 = residual(u, neumann_spec, disc)
        r1 = residual(ScalarField(m, u.values + 7.3), neumann_spec, disc)
        assert np.abs(r0 - r1).max() <= 1e-12

    def test_neumann_compatibility_identity(self, disk_mesh_01, neumann_spec,
                                            rng):
        u = ScalarField(disk_mesh_01,
                        0.3 * rng.standard_normal(disk_mesh_01.n_vertices))
        assert abs(residual(u, neumann_spec,
                            Discretization(disk_mesh_01)).sum()) <= 1e-12


class TestJacobian:
    def test_t0_interior_is_poisson_stiffness(self, disk_mesh_02, rng):
        m = disk_mesh_02
        spec0 = ProblemSpec.robin(0.8, 1.0, t=0.0)
        u1 = ScalarField(m, rng.standard_normal(m.n_vertices))
        u2 = ScalarField(m, rng.standard_normal(m.n_vertices))
        disc = Discretization(m)
        J1 = jacobian(u1, spec0, disc).toarray()
        J2 = jacobian(u2, spec0, disc).toarray()
        interior = ~m.is_boundary_vertex
        assert np.allclose(J1[np.ix_(interior, interior)],
                           J2[np.ix_(interior, interior)], atol=1e-13)

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_matches_finite_differences(self, disk_mesh_02, rng, bc):
        m = disk_mesh_02
        spec = (ProblemSpec.robin(0.8, 1.0) if bc == "robin"
                else ProblemSpec.neumann(0.6, 0.5))
        disc = Discretization(m)
        for _ in range(20):
            u = ScalarField(m, 0.4 * rng.standard_normal(m.n_vertices))
            d = rng.standard_normal(m.n_vertices)
            J = jacobian(u, spec, disc)
            eps = 1e-6
            fd = (residual(ScalarField(m, u.values + eps * d), spec, disc)
                  - residual(ScalarField(m, u.values - eps * d), spec, disc)) \
                / (2 * eps)
            jd = J @ d
            assert np.linalg.norm(fd - jd) <= 1e-5 * np.linalg.norm(jd)

    def test_robin_boundary_block_is_alpha_edge_mass(self, disk_mesh_02):
        m = disk_mesh_02
        alpha = 1.3
        z = ScalarField.zeros(m)
        # at u = 0 the linearized flux is -alpha u for any t, so the
        # boundary contribution is alpha times the consistent edge mass
        for t in (1.0, 0.0):
            sp = ProblemSpec.robin(0.8, alpha, t=t)
            J = jacobian(z, sp, Discretization(m))
            Jn = jacobian(z, sp, Discretization(m, flux_edges=[]))
            diff = (J - Jn).toarray()
            expected = np.zeros_like(diff)
            for (a, b), ell in zip(m.boundary_edges, m.boundary_lengths):
                expected[a, a] += alpha * ell / 3.0
                expected[b, b] += alpha * ell / 3.0
                expected[a, b] += alpha * ell / 6.0
                expected[b, a] += alpha * ell / 6.0
            assert np.allclose(diff, expected, atol=1e-13)
            assert np.all(np.diag(diff)[m.is_boundary_vertex] > 0)

    def test_ellipticity_positive_along_newton_path(self, robin_disk_01,
                                                    robin_spec):
        field, report = robin_disk_01
        lam_par, lam_perp = ellipticity_margins(field, robin_spec)
        assert lam_par > 0 and lam_perp > 0
        assert report.ellipticity_min > 0


@pytest.fixture(scope="module")
def meridian_mesh_02():
    return meridian_mesh(MeridianProblem(1.0, 1.0), 0.2)


class TestNeumannJacobianSplit:
    """The Neumann Jacobian local + outer(u, v) that the Newton solve
    factors: constants span both null spaces of the materialized matrix,
    the parts add up to it, and the sparse part has no dense boundary
    block."""

    @staticmethod
    def _check(disc, seed, amp, t):
        mesh = disc.mesh
        field = ScalarField(
            mesh, amp * np.random.default_rng(seed).standard_normal(
                mesh.n_vertices))
        spec = ProblemSpec.neumann(0.6, 0.5, t=t)
        split = jacobian(field, spec, disc)
        assert isinstance(split, RankOneJacobian)
        J = split.tocsr()
        jnorm = spla.norm(J)
        ones = np.ones(mesh.n_vertices)
        assert np.linalg.norm(J.T @ ones) <= 1e-12 * jnorm
        assert np.linalg.norm(J @ ones) <= 1e-12 * jnorm
        parts = split.local.toarray() + np.outer(split.u, split.v)
        assert np.abs(parts - J.toarray()).max() <= 1e-14 * jnorm
        robin = jacobian(field, ProblemSpec.robin(0.6, 1.0, t=t), disc)
        assert split.nnz == split.local.nnz == robin.nnz

    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 1.0),
           t=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_planar(self, disk_mesh_02, seed, amp, t):
        self._check(Discretization(disk_mesh_02), seed, amp, t)

    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 1.0),
           t=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_weighted_meridian(self, meridian_mesh_02, seed, amp, t):
        edges = outer_flux_edges(meridian_mesh_02)
        assert len(edges) < len(meridian_mesh_02.boundary_edges)
        self._check(Discretization(meridian_mesh_02, 2, edges), seed, amp, t)


def _coo_jacobian(field, spec, flux_edges=None, m=0):
    """Reference Jacobian assembled from COO triplets, with its own
    quadrature and without the cached pattern: ``(local, rank_one)`` with
    rank_one None or the pair (u, v)."""
    mesh = field.mesh
    u = field.values
    t2 = spec.t ** 2
    n = mesh.n_vertices
    grads = mesh.cell_gradients(u)
    w = 1.0 + t2 * np.einsum("mi,mi->m", grads, grads)
    outer = np.einsum("mi,mj->mij", grads, grads)
    dT = (np.eye(2)[None, :, :] - t2 * outer / w[:, None, None]) \
        / np.sqrt(w)[:, None, None]
    centroid_r = mesh.vertices[mesh.cells, 0].mean(axis=1)
    aw = mesh.cell_areas * centroid_r ** m
    gphi = mesh.grad_phi
    dT_gphi = np.einsum("mij,mkj->mki", dT, gphi)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(mesh.cells[:, i])
            cols.append(mesh.cells[:, j])
            vals.append(aw * np.einsum("mi,mi->m", gphi[:, i, :],
                                       dT_gphi[:, j, :]))
    rank_one = None
    edges = np.arange(len(mesh.boundary_edges)) if flux_edges is None \
        else np.asarray(flux_edges, dtype=int)
    a, b = mesh.boundary_edges[edges].T
    if len(a):
        lengths = np.linalg.norm(mesh.vertices[b] - mesh.vertices[a], axis=1)
        ra, rb = mesh.vertices[a, 0], mesh.vertices[b, 0]
        wq = (ra[:, None] + _QXI * (rb - ra)[:, None]) ** m \
            * (lengths[:, None] / 2.0)
        s = (u[b] - u[a]) / lengths
        ds = ((a, -1.0 / lengths), (b, 1.0 / lengths))
        phi = np.stack([1.0 - _QXI, _QXI])
        if spec.bc == "neumann":
            c = spec.c
            rad = np.sqrt(1.0 + t2 * (c ** 2 + s ** 2))
            g0 = c / rad
            dg0_ds = -c * t2 * s / rad ** 3
            s_hat = spec.H * float(np.sum(aw)) \
                / float(np.sum(wq * g0[:, None]))
            for k_idx, dsk in ds:
                for i_loc, i_idx in ((0, a), (1, b)):
                    rows.append(i_idx)
                    cols.append(k_idx)
                    vals.append(-s_hat * np.sum(wq * phi[i_loc], axis=1)
                                * dg0_ds * dsk)
            bvec = np.zeros(n)
            np.add.at(bvec, a, np.sum(wq * g0[:, None] * phi[0], axis=1))
            np.add.at(bvec, b, np.sum(wq * g0[:, None] * phi[1], axis=1))
            dq = np.zeros(n)
            for k_idx, dsk in ds:
                np.add.at(dq, k_idx, np.sum(wq, axis=1) * dg0_ds * dsk)
            q_total = float(np.sum(np.sum(wq, axis=1) * g0))
            rank_one = ((s_hat / q_total) * bvec, dq)
        else:
            alpha = spec.alpha
            uq = u[a][:, None] * phi[0] + u[b][:, None] * phi[1]
            rad = np.sqrt(1.0 + t2 * (alpha ** 2 * uq ** 2 + s[:, None] ** 2))
            dg_du = -alpha * (1.0 + t2 * s[:, None] ** 2) / rad ** 3
            dg_ds = alpha * uq * t2 * s[:, None] / rad ** 3
            for k_loc, (k_idx, dsk) in enumerate(ds):
                for i_loc, i_idx in ((0, a), (1, b)):
                    dgk = dg_du * phi[k_loc] + dg_ds * dsk[:, None]
                    rows.append(i_idx)
                    cols.append(k_idx)
                    vals.append(-np.sum(wq * dgk * phi[i_loc], axis=1))
    local = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    return local, rank_one


class TestValuesOnlyJacobian:
    """:func:`jacobian` sums values into the pattern of its
    :class:`Discretization`; it must equal the COO reference above, pattern
    and values.  The rank-one Neumann term is kept apart exactly when it
    exists."""

    @staticmethod
    def _check(mesh, spec, flux_edges=None, m=0, seed=0):
        field = ScalarField(mesh, 0.4 * np.random.default_rng(seed)
                            .standard_normal(mesh.n_vertices))
        ref_local, rank_one = _coo_jacobian(field, spec, flux_edges, m)
        ref = ref_local.toarray()
        if rank_one is not None:
            ref += np.outer(*rank_one)
        tol = 1e-14 * np.abs(ref).max()
        J = jacobian(field, spec, Discretization(mesh, m, flux_edges))
        if rank_one is None:
            assert isinstance(J, sp.csr_matrix)
            local = J
        else:
            assert isinstance(J, RankOneJacobian)
            assert np.array_equal(J.u, rank_one[0])
            assert np.array_equal(J.v, rank_one[1])
            local = J.local
        assert np.abs(J.tocsr().toarray() - ref).max() <= tol
        assert local.nnz == ref_local.nnz
        assert np.array_equal(local.indptr, ref_local.indptr)
        assert np.array_equal(local.indices, ref_local.indices)
        assert np.abs(local.toarray() - ref_local.toarray()).max() <= tol

    @pytest.mark.parametrize("t", [0.0, 0.6, 1.0])
    def test_robin(self, disk_mesh_02, ellipse_mesh_005, t):
        for mesh in (disk_mesh_02, ellipse_mesh_005):
            self._check(mesh, ProblemSpec.robin(0.8, 1.3, t=t))

    @pytest.mark.parametrize("t", [0.0, 0.6, 1.0])
    def test_neumann(self, disk_mesh_02, ellipse_mesh_005, t):
        for mesh in (disk_mesh_02, ellipse_mesh_005):
            self._check(mesh, ProblemSpec.neumann(0.6, 0.5, t=t))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_meridian_outer_flux_edges(self, m, bc):
        spec = (ProblemSpec.robin(0.8, 1.0, n_dim=m + 2) if bc == "robin"
                else ProblemSpec.neumann(0.6, 0.5, n_dim=m + 2))
        mesh = meridian_mesh(MeridianProblem(1.0, 1.0), 0.2)
        self._check(mesh, spec, outer_flux_edges(mesh), m, seed=m)

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_empty_flux_edges(self, disk_mesh_02, bc):
        spec = (ProblemSpec.robin(0.8, 1.0) if bc == "robin"
                else ProblemSpec.neumann(0.6, 0.5))
        self._check(disk_mesh_02, spec, np.array([], dtype=int))

    @pytest.mark.parametrize("edges", ["all", "half", "half_list"])
    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_flux_edge_subsets(self, ellipse, edges, bc):
        mesh = triangulate(ellipse, 0.2)
        half = np.arange(0, len(mesh.boundary_edges), 2)
        flux_edges = {"all": None, "half": half, "half_list": list(half)}[edges]
        spec = (ProblemSpec.robin(0.8, 1.0) if bc == "robin"
                else ProblemSpec.neumann(0.6, 0.5))
        self._check(mesh, spec, flux_edges)


class TestWeightedMeasure:
    """The r^m cell weight has one home, ``Discretization.aw``: the revolved
    volume, the feasibility area and the volume in the flux rescale all read
    it and agree to the last bit."""

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    def test_one_weighted_volume(self, n_dim):
        spec = ProblemSpec.neumann(0.6, 0.5, n_dim=n_dim)
        mesh = meridian_mesh(MeridianProblem(1.0, 1.0), 0.2)
        disc = Discretization(mesh, n_dim - 2, outer_flux_edges(mesh))
        centroid_r = mesh.vertices[mesh.cells, 0].mean(axis=1)
        assert np.array_equal(disc.aw,
                              mesh.cell_areas * centroid_r ** (n_dim - 2))
        volume = float(np.sum(disc.aw))
        sphere = 2.0 * math.pi ** ((n_dim - 1) / 2.0) \
            / math.gamma((n_dim - 1) / 2.0)
        assert revolved_volume(disc) == sphere * volume
        assert neumann_gate(disc, spec).area == volume
        field = ScalarField(mesh, 0.3 * mesh.vertices[:, 1])
        q_total = float(np.sum(disc.wq * boundary_flux(field, spec, disc)))
        assert flux_scale(field, spec, disc) == spec.H * volume / q_total
        # every one of them follows a change of the cell weight
        disc.volume *= 2.0
        assert revolved_volume(disc) == sphere * 2.0 * volume
        assert neumann_gate(disc, spec).area == 2.0 * volume
        assert flux_scale(field, spec, disc) == spec.H * 2.0 * volume / q_total


class TestFeasibility:
    """The one Neumann gate measures the boundary and the volume of the
    discretization, the measures the compatibility rescale balances
    against."""

    def test_radial_boundary_case_is_borderline(self, disk_mesh_005):
        spec = ProblemSpec.neumann(0.89443, 0.5)
        rep = neumann_gate(Discretization(disk_mesh_005), spec)
        assert rep.feasible and rep.borderline
        assert abs(rep.margin) < 1e-3

    def test_infeasible(self, disk_mesh_01):
        disc = Discretization(disk_mesh_01)
        with pytest.raises(InfeasibleProblemError,
                           match="necessary flux bound violated") as exc:
            neumann_gate(disc, ProblemSpec.neumann(1.0, 0.5))
        rep = exc.value.feasibility
        assert not rep.feasible
        assert rep.margin == pytest.approx(
            CAP * disc.boundary_measure - disc.volume, abs=1e-12)

    def test_feasible_margin_value(self, disk_mesh_01):
        disc = Discretization(disk_mesh_01)
        rep = neumann_gate(disc, ProblemSpec.neumann(0.5, 0.5))
        assert rep.feasible and not rep.borderline
        assert (rep.boundary_length, rep.area) == (disc.boundary_measure,
                                                   disc.volume)
        assert rep.margin == pytest.approx(
            CAP * disc.boundary_measure - 0.5 * disc.volume, abs=1e-12)
        # the analytic margin of the unit disk, CAP 2 pi - pi / 2
        assert rep.margin == pytest.approx(1.2391295656213939, abs=2e-3)

    def test_robin_returns_none(self, disk_mesh_02):
        assert neumann_gate(Discretization(disk_mesh_02),
                            ProblemSpec.robin(0.5, 1.0)) is None

    def test_mesh_feasibility_tracks_domain(self, disk_mesh_01):
        spec = ProblemSpec.neumann(0.6, 0.5)
        rep = neumann_gate(Discretization(disk_mesh_01), spec)
        assert rep.feasible
        assert rep.margin == pytest.approx(CAP * 2.0 * math.pi
                                           - 0.6 * math.pi, abs=0.02)


class TestEmptyFluxEdges:
    """Neumann data on a discretization without flux edges has no flux to
    rescale: every entry point rejects it.  Robin data is left alone."""

    @pytest.mark.parametrize("call", [
        lambda f, s, d: neumann_gate(d, s),
        lambda f, s, d: flux_scale(f, s, d),
        lambda f, s, d: residual(f, s, d),
        lambda f, s, d: newton_solve(d, s),
    ], ids=["neumann_gate", "flux_scale", "residual", "newton_solve"])
    def test_neumann_rejected(self, disk_mesh_02, call):
        disc = Discretization(disk_mesh_02, flux_edges=[])
        field = ScalarField(disk_mesh_02, disk_mesh_02.vertices[:, 0] ** 2)
        with pytest.raises(InvalidParameterError, match="flux edge"):
            call(field, ProblemSpec.neumann(0.6, 0.5), disc)

    def test_robin_unchanged(self, disk_mesh_02):
        disc = Discretization(disk_mesh_02, flux_edges=[])
        field = ScalarField(disk_mesh_02, disk_mesh_02.vertices[:, 0] ** 2)
        spec = ProblemSpec.robin(0.6, 1.0)
        assert neumann_gate(disc, spec) is None
        assert flux_scale(field, spec, disc) == 1.0
        # no boundary term: the entries sum to the load H |Omega|
        assert np.sum(residual(field, spec, disc)) == pytest.approx(
            0.6 * disc.volume, rel=1e-12)
