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
measured incompatibility of the data.  :func:`neumann_gate` checks the
necessary flux bound on the same measures before any solve.

An optional measure weight r^m (r the first coordinate) supports the
axisymmetric meridian reduction; m = 0 gives the plain planar forms.  The
weight and the set of boundary edges that carry flux are fixed per solve by
a :class:`Discretization`, which builds every quadrature array once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from .errors import InfeasibleProblemError, InvalidParameterError

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


# -- discretization -----------------------------------------------------------

class Discretization:
    """The weighted quadrature of one solve on a mesh, built once.

    Owns everything that depends on the measure weight r^m (m =
    ``weight_exponent``; r the first coordinate) or on the flux edges
    (indices into ``mesh.boundary_edges``, all by default):

    * ``aw``, the cell areas times r^m at the centroids (one-point rule),
      and their sum ``volume``;
    * the flux edges ``a -> b``, their ``lengths``, and ``wq``, the (E, 2)
      two-point Gauss weights times r^m, with sum ``boundary_measure``;
    * ``scatter``, the vertex of each residual term: the cell corners
      (corner-major), then the edge tails and heads;
    * the read-only CSR ``indptr``/``indices`` of the Jacobian and the data
      ``slot`` of each triplet: the 3 x 3 block of every cell, row-major,
      then runs over the flux edges for (a, a), (b, a), (a, b), (b, b).

    Every r^m-weighted integral reads ``aw`` or ``wq``.
    """

    def __init__(self, mesh, weight_exponent=0, flux_edges=None):
        self.mesh = mesh
        self.weight_exponent = m = int(weight_exponent)
        edges = np.arange(len(mesh.boundary_edges)) if flux_edges is None \
            else np.asarray(flux_edges, dtype=np.int64)
        self.a, self.b = a, b = mesh.boundary_edges[edges].T
        self.lengths = mesh.boundary_lengths[edges]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        qpts = pa[:, None, :] + _QXI[None, :, None] * (pb - pa)[:, None, :]
        self.aw = mesh.cell_areas * mesh.cell_centroids[:, 0] ** m
        self.wq = qpts[..., 0] ** m * (self.lengths[:, None] / 2.0)
        self.volume = float(np.sum(self.aw))
        self.boundary_measure = float(np.sum(self.wq))
        self.scatter = np.concatenate([mesh.cells.T.ravel(), a, b])

        n = mesh.n_vertices
        c = mesh.cells
        keys = np.concatenate([(np.repeat(c, 3, axis=1) * n + np.tile(c, 3))
                               .ravel(), a * n + a, b * n + a, a * n + b,
                               b * n + b])
        pairs = np.sort(keys)
        pairs = pairs[np.concatenate([[True], pairs[1:] != pairs[:-1]])]
        self.slot = np.searchsorted(pairs, keys)
        self.indices = (pairs % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(pairs // n, minlength=n), out=self.indptr[1:])
        for arr in (self.indptr, self.indices, self.slot):
            arr.flags.writeable = False


# -- conormal flux -----------------------------------------------------------

def boundary_flux(field, spec, disc):
    """Conormal flux g at the two Gauss points of each flux edge of
    ``disc``, an (E, 2) array.

    The tangential derivative along an edge is the difference quotient of
    the two endpoint values.  For Neumann data this is the unscaled profile
    g0; the compatibility rescale applied during assembly is documented
    above.
    """
    ua, ub = field.values[disc.a], field.values[disc.b]
    s = (ub - ua) / disc.lengths
    t2 = spec.t ** 2
    if spec.bc == "neumann":
        g = spec.c / np.sqrt(1.0 + t2 * (spec.c ** 2 + s ** 2))
        return np.repeat(g[:, None], 2, axis=1)
    uq = ua[:, None] * (1.0 - _QXI)[None, :] + ub[:, None] * _QXI[None, :]
    rad = np.sqrt(1.0 + t2 * (spec.alpha ** 2 * uq ** 2 + s[:, None] ** 2))
    return -spec.alpha * uq / rad


def _require_flux_edges(disc):
    if not len(disc.a):
        raise InvalidParameterError(
            "Neumann data needs at least one flux edge")


def _neumann_scale(g0, spec, disc):
    """Compatibility rescale s_hat = H * weighted volume / weighted flux
    integral of the unscaled profile ``g0``."""
    _require_flux_edges(disc)
    return spec.H * disc.volume / float(np.sum(disc.wq * g0))


def flux_scale(field, spec, disc):
    """Neumann compatibility factor at the given field (1.0 for Robin)."""
    if spec.bc != "neumann":
        return 1.0
    return _neumann_scale(boundary_flux(field, spec, disc), spec, disc)


# -- residual ----------------------------------------------------------------

def residual(field, spec, disc):
    """Weak-form residual, one entry per vertex.

    entry_i = int T_t(grad u) . grad phi_i + int H phi_i - bint g phi_i,
    with the r^m measure weight of ``disc`` applied to every integral and
    the boundary integral over its flux edges.
    """
    mesh = disc.mesh
    grads = mesh.cell_gradients(field.values)
    w = 1.0 + spec.t ** 2 * np.einsum("mi,mi->m", grads, grads)
    flux = grads / np.sqrt(w)[:, None]
    gx, gy = mesh.grad_phi[:, :, 0].T, mesh.grad_phi[:, :, 1].T
    cell = disc.aw * (gx * flux[:, 0] + gy * flux[:, 1] + spec.H / 3.0)

    g = boundary_flux(field, spec, disc)
    if spec.bc == "neumann":
        g = g * _neumann_scale(g, spec, disc)
    wg = disc.wq * g
    edge = -np.concatenate([np.sum(wg * (1.0 - _QXI)[None, :], axis=1),
                            np.sum(wg * _QXI[None, :], axis=1)])
    return np.bincount(disc.scatter, minlength=mesh.n_vertices,
                       weights=np.concatenate([cell.ravel(), edge]))


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


def jacobian(field, spec, disc):
    """Exact derivative of :func:`residual`.

    Includes the boundary-flux derivatives with respect to the endpoint
    values and the tangential difference quotient.  For Neumann data the
    derivative of the compatibility rescale s_hat = H |Omega| / Q0 adds the
    rank-one term ``outer((s_hat / Q0) * bvec, dQ0)``, where bvec holds the
    flux integrals against each basis function and dQ0 the gradient of the
    flux integral Q0.  That term couples every pair of flux vertices, so it
    is kept apart: the result is then a :class:`RankOneJacobian` whose
    sparse part has the Robin pattern (``.tocsr()`` materializes it), and
    otherwise a CSR matrix.

    Only values are assembled, into the pattern of ``disc``.  The cell
    block is aw / sqrt(w) (grad phi_i . grad phi_j - t^2 / w p_i p_j) with
    p = grad u . grad phi and w = 1 + t^2 |grad u|^2, i.e. grad phi_i . dT
    grad phi_j for dT = (I - t^2 g g^T / w) / sqrt(w), whose eigenvalues
    w^-3/2 and w^-1/2 are positive.
    """
    mesh = disc.mesh
    u = field.values
    t2 = spec.t ** 2
    n = mesh.n_vertices
    slot = disc.slot
    nnz = len(disc.indices)
    n_cell = 9 * mesh.n_cells

    grads = mesh.cell_gradients(u)
    w = 1.0 + t2 * np.einsum("mi,mi->m", grads, grads)
    gx, gy = mesh.grad_phi[:, :, 0], mesh.grad_phi[:, :, 1]
    p = gx * grads[:, :1] + gy * grads[:, 1:]
    q = p * (t2 / w)[:, None]
    scale = disc.aw / np.sqrt(w)
    block = np.empty((mesh.n_cells, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            block[:, i, j] = block[:, j, i] = scale * (
                gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j] - q[:, i] * p[:, j])
    data = np.bincount(slot[:n_cell], weights=block.ravel(), minlength=nnz)

    rank_one = None
    if len(disc.a):
        wq, lengths = disc.wq, disc.lengths
        ua, ub = u[disc.a], u[disc.b]
        s = (ub - ua) / lengths
        ds_da, ds_db = -1.0 / lengths, 1.0 / lengths
        phi = np.stack([1.0 - _QXI, _QXI])          # phi[k, q] for k in (a, b)
        vals = []

        if spec.bc == "neumann":
            c = spec.c
            rad = np.sqrt(1.0 + t2 * (c ** 2 + s ** 2))
            g0 = c / rad
            dg0_ds = -c * t2 * s / rad ** 3
            s_hat = _neumann_scale(g0[:, None], spec, disc)
            # d residual_i / d u_k = -s_hat * bint dg0/ds ds/du_k phi_i
            #                        - d s_hat / d u_k * bint g0 phi_i
            for dsk in (ds_da, ds_db):
                for i_loc in (0, 1):
                    vals.append(-s_hat * np.sum(wq * phi[i_loc][None, :], axis=1)
                                * dg0_ds * dsk)
            # rank-one part: + (s_hat / Q0) * outer(bvec, dQ0)
            q0_e = np.sum(wq, axis=1) * g0
            q_total = float(np.sum(q0_e))
            edge_rows = disc.scatter[3 * mesh.n_cells:]
            bvec = np.bincount(edge_rows, minlength=n, weights=np.concatenate(
                [np.sum(wq * (g0[:, None]) * phi[k][None, :], axis=1)
                 for k in (0, 1)]))
            dq_edge = np.sum(wq, axis=1) * dg0_ds
            dq = np.bincount(edge_rows, minlength=n, weights=np.concatenate(
                [dq_edge * ds_da, dq_edge * ds_db]))
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

    local = sp.csr_matrix((data, disc.indices, disc.indptr), shape=(n, n))
    return local if rank_one is None else RankOneJacobian(local, *rank_one)


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


# -- the Neumann gate -----------------------------------------------------------

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
        return asdict(self)


def neumann_gate(disc, spec):
    """Divergence-theorem necessary condition for Neumann data, on the
    measures of ``disc``.

    Any solution satisfies H |Omega| = total conormal flux <= cap * L with
    cap = c / sqrt(1 + t^2 c^2), so a positive margin cap*L - H|Omega| is
    necessary (not sufficient) for solvability.  L and |Omega| are
    ``disc.boundary_measure`` and ``disc.volume``, the r^m-weighted mesh
    measures that the compatibility rescale s_hat balances against.
    Margins within a small relative band of zero are flagged borderline;
    the exactly compatible radial data sits on that boundary.

    Returns the report, None for Robin data, and raises
    :class:`InfeasibleProblemError` carrying it when the bound is violated.
    """
    if spec.bc != "neumann":
        return None
    _require_flux_edges(disc)
    L, area = disc.boundary_measure, disc.volume
    cap = spec.c / np.sqrt(1.0 + spec.t ** 2 * spec.c ** 2)
    margin = cap * L - spec.H * area
    band = _FEASIBILITY_BAND * cap * L
    feas = FeasibilityReport(
        feasible=bool(margin > -band),
        borderline=bool(abs(margin) <= band),
        margin=float(margin),
        flux_bound=float(cap),
        required_mean_flux=float(spec.H * area / L),
        boundary_length=float(L),
        area=float(area),
    )
    if not feas.feasible:
        raise InfeasibleProblemError("infeasible Neumann data: necessary "
                                     "flux bound violated", feasibility=feas)
    return feas
