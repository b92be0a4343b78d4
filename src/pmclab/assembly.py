"""Discrete residual and Jacobian of the mean curvature operator.

Piecewise-linear conforming elements with one-point cell quadrature (the
gradient is constant per cell, so the nonlinear flux map is exact there) and
two-point Gauss quadrature on boundary edges.  The homotopy parameter t
enters the radicals as t^2 |grad u|^2, interpolating from the Poisson
operator at t=0 to the full mean curvature operator at t=1.

Boundary data enters through the natural (conormal) flux
``n . grad u / sqrt(1 + t^2 |grad u|^2)``:

* Robin (du/dn + alpha u = 0):  g = -alpha u / sqrt(1 + t^2 (alpha^2 u^2 + s^2))
* Neumann (du/dn = c):          g0 = c / sqrt(1 + t^2 (c^2 + s^2))

where s is the tangential derivative along the edge.  The Neumann problem is
gauge invariant (constants) and carries one scalar compatibility constraint:
the total conormal flux must equal H times the domain measure.  Prescribing
both H and c overdetermines that constraint on generic domains, so Neumann
assembly rescales the flux profile by s_hat = H |Omega| / (integral of g0),
which keeps the discrete system solvable, reduces to the honest flux exactly
when the data is compatible (s_hat = 1), and is reported by the solver as a
measured incompatibility of the data.

An optional vertex-coordinate weight r^m (m = weight_exponent, with r the
first coordinate) supports the axisymmetric meridian reduction; m = 0 gives
the plain planar forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError

# two-point Gauss rule on the unit interval
_QXI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

_FEASIBILITY_BAND = 1e-3     # relative width of the borderline margin band


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary value problem data.

    H : positive mean curvature constant.
    bc : "neumann" (du/dn = c, c > 0) or "robin" (du/dn + alpha u = 0).
    t : homotopy parameter in [0, 1]; t = 1 is the full operator.
    n_dim : spatial dimension of the original problem (2 planar; >= 3 is
        handled through the meridian reduction).
    """

    H: float
    bc: str
    c: float | None = None
    alpha: float | None = None
    t: float = 1.0
    n_dim: int = 2

    def __post_init__(self):
        if not self.H > 0:
            raise InvalidParameterError(f"H must be positive, got {self.H}")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidParameterError(f"t must lie in [0, 1], got {self.t}")
        if self.n_dim < 2:
            raise InvalidParameterError(f"n_dim must be >= 2, got {self.n_dim}")
        if self.bc == "neumann":
            if self.c is None or not self.c > 0:
                raise InvalidParameterError("Neumann data needs c > 0")
            if self.alpha is not None:
                raise InvalidParameterError("Neumann spec must not carry alpha")
        elif self.bc == "robin":
            if self.alpha is None or not self.alpha > 0:
                raise InvalidParameterError("Robin data needs alpha > 0")
            if self.c is not None:
                raise InvalidParameterError("Robin spec must not carry c")
        else:
            raise InvalidParameterError(f"unknown bc kind {self.bc!r}")

    @classmethod
    def neumann(cls, H, c, t=1.0, n_dim=2):
        return cls(H=H, bc="neumann", c=c, t=t, n_dim=n_dim)

    @classmethod
    def robin(cls, H, alpha, t=1.0, n_dim=2):
        return cls(H=H, bc="robin", alpha=alpha, t=t, n_dim=n_dim)

    def at_t(self, t):
        return replace(self, t=t)


@dataclass
class ScalarField:
    """Per-vertex coefficients of a piecewise-linear function on a TriMesh."""

    mesh: object
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise InvalidParameterError(
                f"field length {self.values.shape} does not match vertex count "
                f"{self.mesh.n_vertices}")
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameterError("field values must be finite")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    def mean(self):
        return float(self.values.mean())


# -- quadrature helpers ------------------------------------------------------

def _edge_geometry(mesh, flux_edges):
    """(edge array, tail idx, head idx, lengths, quad points (E,2,2))."""
    if flux_edges is None:
        edges = np.arange(len(mesh.boundary_edges))
    else:
        edges = np.asarray(flux_edges, dtype=np.int64)
    be = mesh.boundary_edges[edges]
    a, b = be[:, 0], be[:, 1]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    lengths = mesh.boundary_lengths[edges]
    qpts = pa[:, None, :] + _QXI[None, :, None] * (pb - pa)[:, None, :]
    return edges, a, b, lengths, qpts


def _cell_weight(mesh, m):
    """One-point quadrature weight r^m at cell centroids (ones when m = 0)."""
    if m == 0:
        return np.ones(mesh.n_cells)
    return mesh.cell_centroids[:, 0] ** m


def _edge_weight(qpts, m):
    if m == 0:
        return np.ones(qpts.shape[:2])
    return qpts[..., 0] ** m


def _grad_phi(mesh):
    g = mesh._grad_inv
    gphi = np.empty((mesh.n_cells, 3, 2))
    gphi[:, 1, :] = g[:, :, 0]
    gphi[:, 2, :] = g[:, :, 1]
    gphi[:, 0, :] = -gphi[:, 1, :] - gphi[:, 2, :]
    return gphi


# -- conormal flux -----------------------------------------------------------

def boundary_flux(field, spec, edges=None):
    """Conormal flux g at the two Gauss points of each boundary edge.

    Returns an (E, 2) array (or (2,) for a single integer edge index).  The
    tangential derivative along an edge is the difference quotient of the two
    endpoint values.  For Neumann data this is the unscaled profile g0; the
    compatibility rescale applied during assembly is documented above.
    """
    single = np.isscalar(edges)
    if single:
        edges = [edges]
    _, a, b, lengths, _ = _edge_geometry(field.mesh, edges)
    ua, ub = field.values[a], field.values[b]
    s = (ub - ua) / lengths
    t2 = spec.t ** 2
    if spec.bc == "neumann":
        g = spec.c / np.sqrt(1.0 + t2 * (spec.c ** 2 + s ** 2))
        out = np.repeat(g[:, None], 2, axis=1)
    else:
        uq = ua[:, None] * (1.0 - _QXI)[None, :] + ub[:, None] * _QXI[None, :]
        rad = np.sqrt(1.0 + t2 * (spec.alpha ** 2 * uq ** 2 + s[:, None] ** 2))
        out = -spec.alpha * uq / rad
    return out[0] if single else out


def _neumann_scale(field, spec, flux_edges, m):
    """Compatibility rescale s_hat = H * weighted area / weighted flux integral."""
    mesh = field.mesh
    _, _, _, lengths, qpts = _edge_geometry(mesh, flux_edges)
    wq = _edge_weight(qpts, m) * (lengths[:, None] / 2.0)
    g0 = boundary_flux(field, spec, flux_edges)
    q_total = float(np.sum(wq * g0))
    volume = float(np.sum(mesh.cell_areas * _cell_weight(mesh, m)))
    return spec.H * volume / q_total


def flux_scale(field, spec, flux_edges=None, weight_exponent=0):
    """Neumann compatibility factor at the given field (1.0 for Robin)."""
    if spec.bc != "neumann":
        return 1.0
    return _neumann_scale(field, spec, flux_edges, weight_exponent)


# -- residual ----------------------------------------------------------------

def residual(field, spec, flux_edges=None, weight_exponent=0):
    """Weak-form residual, one entry per vertex.

    entry_i = int T_t(grad u) . grad phi_i + int H phi_i - bint g phi_i,
    with the optional r^m measure weight applied to every integral.
    """
    mesh = field.mesh
    u = field.values
    m = weight_exponent
    t2 = spec.t ** 2

    grads = mesh.cell_gradients(u)
    w = 1.0 + t2 * np.einsum("mi,mi->m", grads, grads)
    flux = grads / np.sqrt(w)[:, None]

    aw = mesh.cell_areas * _cell_weight(mesh, m)
    gphi = _grad_phi(mesh)
    r = np.zeros(mesh.n_vertices)
    for i in range(3):
        contrib = aw * (np.einsum("mi,mi->m", flux, gphi[:, i, :]) + spec.H / 3.0)
        np.add.at(r, mesh.cells[:, i], contrib)

    _, a, b, lengths, qpts = _edge_geometry(mesh, flux_edges)
    if len(a):
        wq = _edge_weight(qpts, m) * (lengths[:, None] / 2.0)
        g = boundary_flux(field, spec, flux_edges)
        if spec.bc == "neumann":
            g = g * _neumann_scale(field, spec, flux_edges, m)
        np.add.at(r, a, -np.sum(wq * g * (1.0 - _QXI)[None, :], axis=1))
        np.add.at(r, b, -np.sum(wq * g * _QXI[None, :], axis=1))
    return r


# -- Jacobian ----------------------------------------------------------------

@dataclass(frozen=True)
class RankOneJacobian:
    """A Jacobian held as ``local + outer(u, v)`` without forming the outer
    product.

    ``local`` is the sparse CSR part (cell terms and per-edge boundary
    terms); ``u`` and ``v`` are dense vectors.  The Neumann compatibility
    rescale couples every flux vertex to every other one through this
    rank-one term, which as a sparse block would hold N_b^2 entries.
    """

    local: sp.csr_matrix
    u: np.ndarray
    v: np.ndarray

    @property
    def shape(self):
        return self.local.shape

    @property
    def nnz(self):
        return self.local.nnz

    def __matmul__(self, x):
        return self.local @ x + self.u * (self.v @ x)

    def tocsr(self):
        """The materialized matrix; the outer product is stored only on the
        nonzero entries of u and v."""
        return self.local + (sp.csr_matrix(self.u[:, None])
                             @ sp.csr_matrix(self.v[None, :]))


def _jacobian_pattern(mesh, flux_edges):
    """CSR ``(indptr, indices)`` of the Jacobian and the slot in its data of
    each triplet, cached on the mesh per flux-edge set.

    Triplets come in a fixed order: the 3 x 3 block of every cell, row-major
    within the cell, then four runs over the flux edges a -> b, holding the
    (row, column) entries (a, a), (b, a), (a, b) and (b, b).  The arrays are
    read-only because every Jacobian of the mesh shares them.
    """
    key = None if flux_edges is None else \
        np.asarray(flux_edges, dtype=np.int64).tobytes()
    pattern = mesh._jacobian_patterns.get(key)
    if pattern is None:
        n = mesh.n_vertices
        c = mesh.cells
        _, a, b, _, _ = _edge_geometry(mesh, flux_edges)
        rows = np.concatenate([np.repeat(c, 3, axis=1).ravel(), a, b, a, b])
        cols = np.concatenate([np.tile(c, 3).ravel(), a, a, b, b])
        pairs, slot = np.unique(rows * n + cols, return_inverse=True)
        indices = (pairs % n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
        for arr in (indptr, indices, slot):
            arr.flags.writeable = False
        pattern = (indptr, indices, slot)
        mesh._jacobian_patterns[key] = pattern
    return pattern


def jacobian(field, spec, flux_edges=None, weight_exponent=0, split=False):
    """Exact derivative of :func:`residual`.

    Includes the boundary-flux derivatives with respect to the endpoint
    values and the tangential difference quotient.  For Neumann data the
    derivative of the compatibility rescale s_hat = H |Omega| / Q0 adds the
    rank-one term ``outer((s_hat / Q0) * bvec, dQ0)``, where bvec holds the
    flux integrals against each basis function and dQ0 the gradient of the
    flux integral Q0.  That term couples every pair of flux vertices, so
    with ``split=True`` (the Newton path) it is kept apart: the result is a
    :class:`RankOneJacobian` whose sparse part has the Robin pattern, and
    :func:`pmclab.solver.linear_solve` applies the rank-one term by
    Sherman-Morrison.  Otherwise, and whenever there is no rank-one term
    (Robin data, no flux edges), the result is a CSR matrix.

    Only values are assembled.  The sparsity pattern of the sparse part
    depends on the mesh and the flux edges alone; it is built once, cached
    on the mesh (see :func:`_jacobian_pattern`), and each call sums the cell
    and edge contributions into the CSR data with one ``np.bincount`` per
    kind.  The cell block is aw / sqrt(w) (grad phi_i . grad phi_j - t^2 / w
    p_i p_j) with p = grad u . grad phi and w = 1 + t^2 |grad u|^2, i.e.
    grad phi_i . dT grad phi_j for dT = (I - t^2 g g^T / w) / sqrt(w), whose
    eigenvalues w^-3/2 and w^-1/2 are positive.
    """
    mesh = field.mesh
    u = field.values
    m = weight_exponent
    t2 = spec.t ** 2
    n = mesh.n_vertices
    indptr, indices, slot = _jacobian_pattern(mesh, flux_edges)
    nnz = len(indices)
    n_cell = 9 * mesh.n_cells

    grads = mesh.cell_gradients(u)
    w = 1.0 + t2 * np.einsum("mi,mi->m", grads, grads)
    gphi = _grad_phi(mesh)
    gx, gy = gphi[:, :, 0], gphi[:, :, 1]
    p = gx * grads[:, :1] + gy * grads[:, 1:]
    q = p * (t2 / w)[:, None]
    scale = mesh.cell_areas * _cell_weight(mesh, m) / np.sqrt(w)
    block = np.empty((mesh.n_cells, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            block[:, i, j] = block[:, j, i] = scale * (
                gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j] - q[:, i] * p[:, j])
    data = np.bincount(slot[:n_cell], weights=block.ravel(), minlength=nnz)

    rank_one = None
    _, a, b, lengths, qpts = _edge_geometry(mesh, flux_edges)
    if len(a):
        wq = _edge_weight(qpts, m) * (lengths[:, None] / 2.0)
        ua, ub = u[a], u[b]
        s = (ub - ua) / lengths
        ds_da, ds_db = -1.0 / lengths, 1.0 / lengths
        phi = np.stack([1.0 - _QXI, _QXI])          # phi[k, q] for k in (a, b)
        vals = []

        if spec.bc == "neumann":
            c = spec.c
            rad = np.sqrt(1.0 + t2 * (c ** 2 + s ** 2))
            g0 = c / rad
            dg0_ds = -c * t2 * s / rad ** 3
            s_hat = _neumann_scale(field, spec, flux_edges, m)
            # d residual_i / d u_k = -s_hat * bint dg0/ds ds/du_k phi_i
            #                        - d s_hat / d u_k * bint g0 phi_i
            for dsk in (ds_da, ds_db):
                for i_loc in (0, 1):
                    vals.append(-s_hat * np.sum(wq * phi[i_loc][None, :], axis=1)
                                * dg0_ds * dsk)
            # rank-one part: + (s_hat / Q0) * outer(bvec, dQ0)
            q0_e = np.sum(wq, axis=1) * g0
            q_total = float(np.sum(q0_e))
            bvec = np.zeros(n)
            np.add.at(bvec, a, np.sum(wq * (g0[:, None]) * phi[0][None, :], axis=1))
            np.add.at(bvec, b, np.sum(wq * (g0[:, None]) * phi[1][None, :], axis=1))
            dq = np.zeros(n)
            dq_edge = np.sum(wq, axis=1) * dg0_ds
            np.add.at(dq, a, dq_edge * ds_da)
            np.add.at(dq, b, dq_edge * ds_db)
            rank_one = ((s_hat / q_total) * bvec, dq)
        else:
            alpha = spec.alpha
            uq = ua[:, None] * phi[0][None, :] + ub[:, None] * phi[1][None, :]
            rad2 = 1.0 + t2 * (alpha ** 2 * uq ** 2 + s[:, None] ** 2)
            rad = np.sqrt(rad2)
            dg_du = -alpha * (1.0 + t2 * s[:, None] ** 2) / rad ** 3
            dg_ds = alpha * uq * t2 * s[:, None] / rad ** 3
            for k_loc, dsk in ((0, ds_da), (1, ds_db)):
                dgk = dg_du * phi[k_loc][None, :] + dg_ds * dsk[:, None]
                for i_loc in (0, 1):
                    vals.append(-np.sum(wq * dgk * phi[i_loc][None, :], axis=1))
        data += np.bincount(slot[n_cell:], weights=np.concatenate(vals),
                            minlength=nnz)

    local = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    if rank_one is None:
        return local
    J = RankOneJacobian(local, *rank_one)
    return J if split else J.tocsr()


def ellipticity_margins(field, spec):
    """Smallest eigenvalues of the per-cell flux derivative (must be > 0).

    The two eigenvalues of dT are w^-3/2 along the gradient and w^-1/2
    across it, with w = 1 + t^2 |grad u|^2; both are computed explicitly so
    the positivity assertion is a measurement, not an assumption.
    """
    grads = field.mesh.cell_gradients(field.values)
    w = 1.0 + spec.t ** 2 * np.einsum("mi,mi->m", grads, grads)
    lam_par = w ** -1.5
    lam_perp = w ** -0.5
    return float(np.min(lam_par)), float(np.min(lam_perp))


# -- solvability pre-check -----------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    borderline: bool
    margin: float
    flux_bound: float          # largest achievable mean conormal flux
    required_mean_flux: float  # H |Omega| / |boundary|
    boundary_length: float
    area: float

    def as_dict(self):
        return {
            "feasible": self.feasible,
            "borderline": self.borderline,
            "margin": self.margin,
            "flux_bound": self.flux_bound,
            "required_mean_flux": self.required_mean_flux,
            "boundary_length": self.boundary_length,
            "area": self.area,
        }


def neumann_feasibility(domain, spec):
    """Divergence-theorem necessary condition for Neumann data.

    Any solution satisfies H |Omega| = total conormal flux <= cap * L with
    cap = c / sqrt(1 + t^2 c^2), so a positive margin cap*L - H|Omega| is
    necessary (not sufficient) for solvability.  Margins within a small
    relative band of zero are flagged borderline; the exactly compatible
    radial data sits on that boundary.
    """
    if spec.bc != "neumann":
        raise InvalidParameterError("feasibility check applies to Neumann data")
    L, area = domain.length, domain.area
    return _feasibility_from_measures(spec, L, area)


def _feasibility_from_measures(spec, L, area):
    cap = spec.c / np.sqrt(1.0 + spec.t ** 2 * spec.c ** 2)
    margin = cap * L - spec.H * area
    band = _FEASIBILITY_BAND * cap * L
    return FeasibilityReport(
        feasible=bool(margin > -band),
        borderline=bool(abs(margin) <= band),
        margin=float(margin),
        flux_bound=float(cap),
        required_mean_flux=float(spec.H * area / L),
        boundary_length=float(L),
        area=float(area),
    )


def mesh_feasibility(mesh, spec, flux_edges=None, weight_exponent=0):
    """Feasibility gate on discrete (weighted) measures; used by the solver."""
    _, _, _, lengths, qpts = _edge_geometry(mesh, flux_edges)
    wq = _edge_weight(qpts, weight_exponent) * (lengths[:, None] / 2.0)
    L = float(np.sum(wq))
    area = float(np.sum(mesh.cell_areas * _cell_weight(mesh, weight_exponent)))
    return _feasibility_from_measures(spec, L, area)
