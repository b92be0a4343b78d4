import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pmclab.assembly import (Discretization, ProblemSpec, ScalarField,
                             boundary_flux, ellipticity_margins, jacobian,
                             neumann_gate, residual)
from pmclab.assembly import _QXI, compatible_scale
from pmclab.axisym import meridian_mesh
from pmclab.errors import InfeasibleProblemError
from pmclab.geometry import make_disk, triangulate
from pmclab.sparse import Csr

from oracles import radial_disk_oracle, scipy_csr

CAP = 0.5 / math.sqrt(1.25)          # c / sqrt(1 + c^2) for c = 0.5


class TestProblemSpec:
    def test_validation(self):
        # the homotopy is a continuation in the data: the problem has no t
        with pytest.raises(TypeError):
            ProblemSpec(H=0.5, bc="robin", alpha=1.0, t=0.5)


class TestBoundaryFlux:
    def test_neumann_plugin(self, disk_mesh_02):
        spec = ProblemSpec(H=0.6, bc="neumann", c=0.5)
        field = ScalarField(disk_mesh_02, np.zeros(disk_mesh_02.n_vertices))
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.allclose(g, 0.4472135954999579, atol=1e-12)

    def test_robin_plugin(self, disk_mesh_02):
        spec = ProblemSpec(H=0.6, bc="robin", alpha=1.0)
        field = ScalarField(disk_mesh_02,
                            np.full(disk_mesh_02.n_vertices, -0.5))
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.allclose(g, 0.4472135954999579, atol=1e-12)

    def test_neumann_t0_degenerates_to_c(self, disk_mesh_02):
        # the homotopy member at t is the solution at (tH, tc) over t; as
        # t -> 0 its conormal flux tc / sqrt(1 + t^2 c^2) / t tends to c
        eps = 2.0 ** -20
        spec = ProblemSpec(H=eps * 0.6, bc="neumann", c=eps * 0.5)
        field = ScalarField(disk_mesh_02, np.zeros(disk_mesh_02.n_vertices))
        g = boundary_flux(field, spec, Discretization(disk_mesh_02)) / eps
        assert np.allclose(g, 0.5, rtol=0.0, atol=1e-12)

    def test_tangential_derivative_lowers_flux(self, disk_mesh_02):
        spec = ProblemSpec(H=0.6, bc="neumann", c=0.5)
        field = ScalarField(disk_mesh_02, disk_mesh_02.vertices[:, 1].copy())
        g = boundary_flux(field, spec, Discretization(disk_mesh_02))
        assert np.all(g <= 0.4472135954999579 + 1e-15)
        assert g.min() < 0.44


class TestResidual:
    def test_constant_field_neumann_compatible(self, disk_mesh_02):
        m = disk_mesh_02
        # compatible data computed from the discrete measures makes the
        # compatible flux scale exactly one, so boundary rows carry
        # cap * edge mass
        L_h = m.boundary_lengths.sum()
        area_h = m.cell_areas.sum()
        H = CAP * L_h / area_h
        spec = ProblemSpec(H=H, bc="neumann", c=0.5)
        field = ScalarField(m, np.full(m.n_vertices, 3.7))
        disc = Discretization(m)
        s_hat = compatible_scale(field, spec, disc)
        assert s_hat == pytest.approx(1.0, abs=1e-12)
        r = residual(field, spec, disc, s_hat)
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
        # the Poisson residual is the t -> 0 limit of the residual at
        # (tH, t v) over t; t = 2^-20 leaves O(t^2) of it
        eps = 2.0 ** -20
        spec = ProblemSpec(H=eps * 0.8, bc="robin", alpha=1.0)
        errs = []
        for h in (0.2, 0.1):
            m = triangulate(disk, h)
            v = 0.2 * np.sum(m.vertices ** 2, axis=1) - 0.6
            r = residual(ScalarField(m, eps * v), spec,
                         Discretization(m)) / eps
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
        disc = Discretization(disk_mesh_01)
        s_hat = compatible_scale(u, neumann_spec, disc)
        assert abs(residual(u, neumann_spec, disc, s_hat).sum()) <= 1e-12


class TestJacobian:
    def test_t0_interior_is_poisson_stiffness(self, disk_mesh_02, rng):
        # the Jacobian of the t = 0 member, the t -> 0 limit of the
        # Jacobian at t u, is the one at u = 0: on the interior, the P1
        # stiffness sum_G G^T diag(cell areas) G, whatever u is
        m = disk_mesh_02
        spec = ProblemSpec(H=0.8, bc="robin", alpha=1.0)
        disc = Discretization(m)
        area = sp.diags(m.cell_areas)
        K = sum(scipy_csr(g).T @ area @ scipy_csr(g)
                for g in m.gradient).toarray()
        interior = np.ix_(~m.is_boundary_vertex, ~m.is_boundary_vertex)
        for scale, tol in ((0.0, 1e-13), (2.0 ** -20, 1e-8)):
            u = ScalarField(m, scale * rng.standard_normal(m.n_vertices))
            J = scipy_csr(jacobian(u, spec, disc)).toarray()
            assert np.abs(J[interior] - K[interior]).max() <= tol

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_matches_finite_differences(self, disk_mesh_02, rng, bc):
        # Neumann: the residual is differenced in the field and in the flux
        # scale, away from the compatible scale s_hat(u)
        m = disk_mesh_02
        n = m.n_vertices
        spec = (ProblemSpec(H=0.8, bc="robin", alpha=1.0) if bc == "robin"
                else ProblemSpec(H=0.6, bc="neumann", c=0.5))
        disc = Discretization(m)
        for _ in range(20):
            u = ScalarField(m, 0.4 * rng.standard_normal(n))
            s = (0.7 * compatible_scale(u, spec, disc) if bc == "neumann"
                 else 1.0)
            d = rng.standard_normal(n + (bc == "neumann"))
            J = jacobian(u, spec, disc, s)
            eps = 1e-6

            def at(sign):
                return residual(
                    ScalarField(m, u.values + sign * eps * d[:n]), spec, disc,
                    s + sign * eps * d[n] if bc == "neumann" else s)
            fd = (at(1.0) - at(-1.0)) / (2 * eps)
            jd = (J @ d)[:n]
            assert np.linalg.norm(fd - jd) <= 1e-5 * np.linalg.norm(jd)

    def test_robin_boundary_block_is_alpha_edge_mass(self, disk_mesh_02):
        m = disk_mesh_02
        alpha = 1.3
        z = ScalarField(m, np.zeros(m.n_vertices))
        disc = Discretization(m)
        # at u = 0 the linearized flux is -alpha u, so the boundary
        # contribution is alpha times the consistent edge mass and the cell
        # block does not see alpha: halving alpha takes away half the edge
        # mass
        J = scipy_csr(jacobian(
            z, ProblemSpec(H=0.8, bc="robin", alpha=alpha), disc))
        Jh = scipy_csr(jacobian(
            z, ProblemSpec(H=0.8, bc="robin", alpha=alpha / 2.0), disc))
        diff = (J - Jh).toarray()
        expected = np.zeros_like(diff)
        for (a, b), ell in zip(m.boundary_edges, m.boundary_lengths):
            expected[a, a] += alpha / 2.0 * ell / 3.0
            expected[b, b] += alpha / 2.0 * ell / 3.0
            expected[a, b] += alpha / 2.0 * ell / 6.0
            expected[b, a] += alpha / 2.0 * ell / 6.0
        assert np.allclose(diff, expected, atol=1e-13)
        assert np.all(np.diag(diff)[m.is_boundary_vertex] > 0)

    def test_ellipticity_positive_along_newton_path(self, robin_disk_01):
        field, report = robin_disk_01
        lam_par, lam_perp = ellipticity_margins(field)
        assert lam_par > 0 and lam_perp > 0
        assert report.ellipticity_min > 0


@pytest.fixture(scope="module")
def meridian_mesh_02():
    return meridian_mesh(make_disk(1.0), 0.2)


class TestNeumannJacobianBorder:
    """The Neumann Jacobian [[J, -E], [e^T, 0]] that the Newton solve
    factors: J keeps the constants as null vector and the Robin pattern,
    the flux scale's column is minus the unscaled flux load E, whose sum
    sets the compatible scale, and the gauge row holds one entry at the
    last vertex, so the border adds one entry per boundary vertex and one.
    The column vanishes where the weight does, on the axis of a meridian
    mesh."""

    @staticmethod
    def _check(disc, seed, amp):
        mesh = disc.mesh
        n = mesh.n_vertices
        field = ScalarField(
            mesh, amp * np.random.default_rng(seed).standard_normal(n))
        spec = ProblemSpec(H=0.6, bc="neumann", c=0.5)
        A = jacobian(field, spec, disc)
        assert isinstance(A, Csr) and A.shape == (n + 1, n + 1)
        A = scipy_csr(A)
        J = A[:n, :n]
        jnorm = np.linalg.norm(J.data)
        assert np.linalg.norm(J @ np.ones(n)) <= 1e-12 * jnorm
        load = -A[:n, n].toarray().ravel()
        be = mesh.boundary_edges
        wet = np.unique(be[disc.wq.sum(axis=1) > 0])
        assert np.flatnonzero(load).tolist() == wet.tolist()
        assert spec.H * disc.volume / np.sum(load) == pytest.approx(
            compatible_scale(field, spec, disc), rel=1e-13)
        gauge = A[n].tocoo()
        assert (gauge.col.tolist(), gauge.data.tolist()) == ([n - 1], [1.0])
        robin = jacobian(field, ProblemSpec(H=0.6, bc="robin", alpha=1.0),
                         disc)
        assert np.array_equal(J.indptr, robin.indptr)
        assert np.array_equal(J.indices, robin.indices)
        assert A.nnz == robin.nnz + len(np.unique(be)) + 1

    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_planar(self, disk_mesh_02, seed, amp):
        self._check(Discretization(disk_mesh_02), seed, amp)

    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_weighted_meridian(self, meridian_mesh_02, seed, amp):
        self._check(Discretization(meridian_mesh_02, 2), seed, amp)


def _coo_jacobian(field, spec, m=0):
    """Reference Jacobian assembled from COO triplets, with its own
    quadrature and without the cached pattern: ``(local, border)`` with
    border None (Robin) or the flux scale's column -E at the compatible
    scale (Neumann)."""
    mesh = field.mesh
    u = field.values
    n = mesh.n_vertices
    grads = mesh.cell_gradients(u)
    w = 1.0 + np.einsum("mi,mi->m", grads, grads)
    outer = np.einsum("mi,mj->mij", grads, grads)
    dT = (np.eye(2)[None, :, :] - outer / w[:, None, None]) \
        / np.sqrt(w)[:, None, None]
    centroid_r = mesh.vertices[mesh.cells, 0].mean(axis=1)
    aw = mesh.cell_areas * centroid_r ** m
    gphi = np.moveaxis(mesh.basis_gradients, 0, -1)     # (M, 3, 2)
    dT_gphi = np.einsum("mij,mkj->mki", dT, gphi)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(mesh.cells[:, i])
            cols.append(mesh.cells[:, j])
            vals.append(aw * np.einsum("mi,mi->m", gphi[:, i, :],
                                       dT_gphi[:, j, :]))
    border = None
    a, b = mesh.boundary_edges.T
    lengths = np.linalg.norm(mesh.vertices[b] - mesh.vertices[a], axis=1)
    ra, rb = mesh.vertices[a, 0], mesh.vertices[b, 0]
    wq = (ra[:, None] + _QXI * (rb - ra)[:, None]) ** m \
        * (lengths[:, None] / 2.0)
    s = (u[b] - u[a]) / lengths
    ds = ((a, -1.0 / lengths), (b, 1.0 / lengths))
    phi = np.stack([1.0 - _QXI, _QXI])
    if spec.bc == "neumann":
        c = spec.c
        rad = np.sqrt(1.0 + c ** 2 + s ** 2)
        g0 = c / rad
        dg0_ds = -c * s / rad ** 3
        s_hat = spec.H * float(np.sum(aw)) / float(np.sum(wq * g0[:, None]))
        for k_idx, dsk in ds:
            for i_loc, i_idx in ((0, a), (1, b)):
                rows.append(i_idx)
                cols.append(k_idx)
                vals.append(-s_hat * np.sum(wq * phi[i_loc], axis=1)
                            * dg0_ds * dsk)
        border = np.zeros(n)
        np.add.at(border, a, -np.sum(wq * g0[:, None] * phi[0], axis=1))
        np.add.at(border, b, -np.sum(wq * g0[:, None] * phi[1], axis=1))
    else:
        alpha = spec.alpha
        uq = u[a][:, None] * phi[0] + u[b][:, None] * phi[1]
        rad = np.sqrt(1.0 + alpha ** 2 * uq ** 2 + s[:, None] ** 2)
        dg_du = -alpha * (1.0 + s[:, None] ** 2) / rad ** 3
        dg_ds = alpha * uq * s[:, None] / rad ** 3
        for k_loc, (k_idx, dsk) in enumerate(ds):
            for i_loc, i_idx in ((0, a), (1, b)):
                dgk = dg_du * phi[k_loc] + dg_ds * dsk[:, None]
                rows.append(i_idx)
                cols.append(k_idx)
                vals.append(-np.sum(wq * dgk * phi[i_loc], axis=1))
    local = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    return local, border


class TestValuesOnlyJacobian:
    """:func:`jacobian` sums values into the pattern of its
    :class:`Discretization`; it must equal the COO reference above, pattern
    and values.  A Neumann Jacobian adds the flux scale's column and the
    gauge row, one entry at the last vertex."""

    @staticmethod
    def _check(mesh, spec, m=0, seed=0, amp=1.0):
        n = mesh.n_vertices
        field = ScalarField(mesh, amp * 0.4 * np.random.default_rng(seed)
                            .standard_normal(n))
        ref_local, border = _coo_jacobian(field, spec, m)
        tol = 1e-14 * np.abs(ref_local.toarray()).max()
        disc = Discretization(mesh, m)
        s_hat = compatible_scale(field, spec, disc) if border is not None \
            else 1.0
        J = jacobian(field, spec, disc, s_hat)
        assert isinstance(J, Csr)
        J = scipy_csr(J)
        # assembly indices are below nnz and N: int32 halves their memory
        slot = disc.jacobian_pattern(border is not None)[2]
        assert slot.dtype == disc.scatter.dtype == np.int32
        local = J
        if border is not None:
            assert J.shape == (n + 1, n + 1)
            assert np.abs(J[:n, n].toarray().ravel() - border).max() \
                <= 1e-14 * np.abs(border).max()
            assert np.array_equal(J[n].toarray().ravel(), np.eye(n + 1)[n - 1])
            local = J[:n, :n]
        assert local.nnz == ref_local.nnz
        assert np.array_equal(local.indptr, ref_local.indptr)
        assert np.array_equal(local.indices, ref_local.indices)
        assert np.abs(local.toarray() - ref_local.toarray()).max() <= tol

    # the field amplitude runs from the zero field, where the flux
    # derivative is the identity, to gradients of order one
    @pytest.mark.parametrize("amp", [0.0, 0.6, 1.0])
    def test_robin(self, disk_mesh_02, ellipse_mesh_005, amp):
        for mesh in (disk_mesh_02, ellipse_mesh_005):
            self._check(mesh, ProblemSpec(H=0.8, bc="robin", alpha=1.3),
                        amp=amp)

    @pytest.mark.parametrize("amp", [0.0, 0.6, 1.0])
    def test_neumann(self, disk_mesh_02, ellipse_mesh_005, amp):
        for mesh in (disk_mesh_02, ellipse_mesh_005):
            self._check(mesh, ProblemSpec(H=0.6, bc="neumann", c=0.5), amp=amp)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_meridian_outer_flux_edges(self, m, bc):
        spec = (ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=m + 2)
                if bc == "robin" else
                ProblemSpec(H=0.6, bc="neumann", c=0.5, n_dim=m + 2))
        # only the outer edges carry flux: the axis edges are summed at
        # weight zero
        mesh = meridian_mesh(make_disk(1.0), 0.2)
        self._check(mesh, spec, m, seed=m)


class TestJacobianMemory:
    """:func:`jacobian` adds each cell entry straight into the CSR data by
    its pattern slot, with no (M, 3, 3) block and no copy of the slots, and
    its pattern keys stay int64 where a vertex index product passes the
    int32 range."""

    @pytest.fixture(scope="class")
    def ellipse_mesh_002(self, ellipse):
        return triangulate(ellipse, 0.02)

    @pytest.mark.parametrize("bc", ["robin", "neumann"])
    def test_warm_call_traced_peak_per_cell(self, ellipse_mesh_002, bc):
        mesh = ellipse_mesh_002
        spec = (ProblemSpec(H=0.5, bc="robin", alpha=1.0) if bc == "robin"
                else ProblemSpec(H=0.6, bc="neumann", c=0.5))
        disc = Discretization(mesh)
        field = ScalarField(mesh, 0.1 * np.random.default_rng(0)
                            .standard_normal(mesh.n_vertices))
        jacobian(field, spec, disc)        # builds the pattern
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            J = jacobian(field, spec, disc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert J.nnz == len(disc.jacobian_pattern(bc == "neumann")[1])
        # the result's data alone is about 28 B per cell
        assert peak <= 160 * mesh.n_cells

    def test_pattern_past_the_int32_key_range(self):
        # N > 46,340: row * N + column passes the int32 range
        mesh = triangulate(make_disk(1.0), 0.008)
        n = mesh.n_vertices
        assert n > 46_341
        field = ScalarField(mesh, 0.4 * np.random.default_rng(0)
                            .standard_normal(n))
        spec = ProblemSpec(H=0.8, bc="robin", alpha=1.3)
        ref, _ = _coo_jacobian(field, spec)
        J = jacobian(field, spec, Discretization(mesh))
        assert np.array_equal(J.indptr, ref.indptr)
        assert np.array_equal(J.indices, ref.indices)
        assert np.abs(J.data - ref.data).max() \
            <= 1e-14 * np.abs(ref.data).max()
        # the vertex adjacency is the pattern without its diagonal
        row = np.repeat(np.arange(n), np.diff(J.indptr))
        indptr, indices = mesh.vertex_neighbors()
        assert np.array_equal(indptr, J.indptr - np.arange(n + 1))
        assert np.array_equal(indices, J.indices[J.indices != row])


class TestWeightedMeasure:
    """The r^m cell weight has one home, ``Discretization.aw``: the
    feasibility area and the volume in the compatible flux scale both read
    it and agree to the last bit."""

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    def test_one_weighted_volume(self, n_dim):
        spec = ProblemSpec(H=0.6, bc="neumann", c=0.5, n_dim=n_dim)
        mesh = meridian_mesh(make_disk(1.0), 0.2)
        disc = Discretization(mesh, n_dim - 2)
        centroid_r = mesh.vertices[mesh.cells, 0].mean(axis=1)
        assert np.array_equal(disc.aw,
                              mesh.cell_areas * centroid_r ** (n_dim - 2))
        volume = float(np.sum(disc.aw))
        assert neumann_gate(disc, spec).area == volume
        field = ScalarField(mesh, 0.3 * mesh.vertices[:, 1])
        q_total = float(np.sum(disc.wq * boundary_flux(field, spec, disc)))
        assert compatible_scale(field, spec, disc) == spec.H * volume / q_total
        # every one of them follows a change of the cell weight
        disc.volume *= 2.0
        assert neumann_gate(disc, spec).area == 2.0 * volume
        assert compatible_scale(field, spec, disc) \
            == spec.H * 2.0 * volume / q_total


class TestFeasibility:
    """The one Neumann gate measures the boundary and the volume of the
    discretization, the measures the compatible flux scale balances
    against."""

    def test_radial_boundary_case_is_borderline(self, disk_mesh_005):
        spec = ProblemSpec(H=0.89443, bc="neumann", c=0.5)
        rep = neumann_gate(Discretization(disk_mesh_005), spec)
        assert rep.feasible and rep.borderline
        assert abs(rep.margin) < 1e-3

    def test_infeasible(self, disk_mesh_01):
        disc = Discretization(disk_mesh_01)
        with pytest.raises(InfeasibleProblemError,
                           match="necessary flux bound violated") as exc:
            neumann_gate(disc, ProblemSpec(H=1.0, bc="neumann", c=0.5))
        rep = exc.value.feasibility
        assert not rep.feasible
        assert rep.margin == pytest.approx(
            CAP * disc.boundary_measure - disc.volume, abs=1e-12)

    def test_feasible_margin_value(self, disk_mesh_01):
        disc = Discretization(disk_mesh_01)
        rep = neumann_gate(disc, ProblemSpec(H=0.5, bc="neumann", c=0.5))
        assert rep.feasible and not rep.borderline
        assert (rep.boundary_length, rep.area) == (disc.boundary_measure,
                                                   disc.volume)
        assert rep.margin == pytest.approx(
            CAP * disc.boundary_measure - 0.5 * disc.volume, abs=1e-12)
        # the analytic margin of the unit disk, CAP 2 pi - pi / 2
        assert rep.margin == pytest.approx(1.2391295656213939, abs=2e-3)

    def test_robin_returns_none(self, disk_mesh_02):
        assert neumann_gate(Discretization(disk_mesh_02),
                            ProblemSpec(H=0.5, bc="robin", alpha=1.0)) is None

    def test_mesh_feasibility_tracks_domain(self, disk_mesh_01):
        spec = ProblemSpec(H=0.6, bc="neumann", c=0.5)
        rep = neumann_gate(Discretization(disk_mesh_01), spec)
        assert rep.feasible
        assert rep.margin == pytest.approx(CAP * 2.0 * math.pi
                                           - 0.6 * math.pi, abs=0.02)
