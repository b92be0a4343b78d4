"""Discrete residual and Jacobian of the mean curvature operator.

Piecewise-linear conforming elements with one-point cell quadrature (the
gradient is constant per cell, so the nonlinear flux map is exact there) and
two-point Gauss quadrature on boundary edges.  Only the paper's operator
div(grad u / sqrt(1 + |grad u|^2)) is assembled: the homotopy family of
:func:`pmclab.solver.homotopy_solve` is a continuation in the data (H, c),
whose member at t solves this operator at (tH, tc) divided by t.

Boundary data enters through the natural (conormal) flux
``n . grad u / sqrt(1 + |grad u|^2)``.  With d the prescribed normal
derivative and s the tangential derivative along the edge it is

    g = d / sqrt(1 + d^2 + s^2),

d = c for Neumann data (du/dn = c) and d = -alpha u for Robin data
(du/dn + alpha u = 0); :func:`_conormal` is the one kernel of both.  The
Neumann problem is gauge invariant (constants) and carries one scalar
compatibility constraint: the total conormal flux must equal H times the
domain measure.  Prescribing both H and c overdetermines that constraint on
generic domains, so the Neumann flux profile carries a scale, the unknown
``scale`` of :func:`residual`: the boundary term is ``scale * g``.  Its
compatible value s_hat(u) = H |Omega| / (integral of g),
:func:`compatible_scale`, makes the entries sum to zero; the solver makes
it a Newton unknown, whose converged value is one exactly when the data is
compatible and is reported as a measured incompatibility of the data.
Robin data has scale one.  :func:`neumann_gate` checks the necessary flux
bound on the same measures before any solve.

An optional measure weight r^m (r the first coordinate) supports the
axisymmetric meridian reduction; m = 0 gives the plain planar forms.  The
boundary terms run over every boundary edge of the mesh: on a meridian mesh
the weight is exactly zero at the Gauss points of the axis edges, so the
weight alone poses the axis condition.  The weight is fixed per solve by a
:class:`Discretization`, which builds every quadrature array once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InfeasibleProblemError, InvalidParameterError
from .geometry import _csr_indptr
from .sparse import Csr

# two-point Gauss rule on the unit interval
_QXI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

_FEASIBILITY_BAND = 1e-3     # relative width of the borderline margin band


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary value problem data, as :mod:`pmclab.config` validated it.

    H : positive mean curvature constant.
    bc : "neumann" (du/dn = c, c > 0) or "robin" (du/dn + alpha u = 0).
    n_dim : spatial dimension of the original problem (2 planar; >= 3 is
        handled through the meridian reduction).
    """

    H: float
    bc: str
    c: float | None = None
    alpha: float | None = None
    n_dim: int = 2


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


# -- discretization -----------------------------------------------------------

class Discretization:
    """The weighted quadrature of one solve on a mesh, built once.

    Owns everything that depends on the measure weight r^m (m =
    ``weight_exponent``; r the first coordinate):

    * ``aw``, the cell areas times r^m at the centroids (one-point rule),
      and their sum ``volume``;
    * ``wq``, the (E, 2) two-point Gauss weights times r^m on the boundary
      edges ``mesh.boundary_edges``, with sum ``boundary_measure``; both
      weights of an edge on the axis r = 0 are exactly zero for m >= 1;
    * ``scatter``, the vertex of each residual term: the cell corners
      (corner-major), then the edge tails and heads;
    * the sparsity pattern of the Jacobian, built on first use by
      :meth:`jacobian_pattern`.

    Every r^m-weighted integral reads ``aw`` or ``wq``.  The meshers close
    the boundary loop, so every mesh has boundary edges to pose data on.
    """

    def __init__(self, mesh, weight_exponent=0):
        self.mesh = mesh
        m = int(weight_exponent)
        a, b = mesh.boundary_edges.T
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        qpts = pa[:, None, :] + _QXI[None, :, None] * (pb - pa)[:, None, :]
        self.aw = mesh.cell_areas * mesh.cell_centroids[:, 0] ** m
        self.wq = qpts[..., 0] ** m * (mesh.boundary_lengths[:, None] / 2.0)
        self.volume = float(np.sum(self.aw))
        self.boundary_measure = float(np.sum(self.wq))
        self.scatter = np.concatenate([mesh.cells.T.ravel(), a, b]).astype(
            np.int32)
        self.scatter.flags.writeable = False
        self._patterns = {}

    def jacobian_pattern(self, bordered=False):
        """The read-only CSR ``(indptr, indices, slot)`` of the Jacobian,
        built once per kind on first use, where ``slot`` is the data index of
        each triplet: the 3 x 3 block of every cell, row-major, then runs
        over the boundary edges a -> b for (a, a), (b, a), (a, b), (b, b).

        The ``bordered`` pattern, of a Neumann Jacobian, has one more row and
        column, index N: its slots go on with (a, N) and (b, N) over the
        boundary edges and end with the gauge entry (N, N - 1).
        """
        if bordered not in self._patterns:
            n = self.mesh.n_vertices
            size = n + 1 if bordered else n
            a, b = self.mesh.boundary_edges.T
            # int64 keys row * size + column: size^2 overflows int32 past
            # size 46,340
            c = self.mesh.cells.astype(np.int64)
            keys = [(np.repeat(c, 3, axis=1) * size + np.tile(c, 3)).ravel(),
                    a * size + a, b * size + a, a * size + b, b * size + b]
            if bordered:
                keys += [a * size + n, b * size + n, [n * size + n - 1]]
            keys = np.concatenate(keys)
            pairs = np.sort(keys)
            pairs = pairs[np.concatenate([[True], pairs[1:] != pairs[:-1]])]
            slot = np.searchsorted(pairs, keys).astype(np.int32)
            indices = (pairs % size).astype(np.int32)
            indptr = _csr_indptr(pairs // size, size)
            for arr in (indptr, indices, slot):
                arr.flags.writeable = False
            self._patterns[bordered] = indptr, indices, slot
        return self._patterns[bordered]


# -- conormal flux -----------------------------------------------------------

def boundary_flux(field, spec, disc):
    """Conormal flux g at the two Gauss points of each boundary edge, an
    (E, 2) array.

    The tangential derivative along an edge is the difference quotient of
    the two endpoint values.  For Neumann data this is the unscaled profile.
    """
    return _conormal(field.values, spec, disc)[-1]


def _conormal(u, spec, disc):
    """(s, d, dd_du, rad, g) at the two Gauss points of the boundary edges:
    the tangential difference quotient s per edge, (E, 1); the datum d,
    (E, 2), c for Neumann and -alpha u for Robin; its derivative in the
    Gauss-point value, 0 or -alpha; the radical
    sqrt(1 + d^2 + s^2), (E, 2); and the flux g = d / rad, (E, 2)."""
    mesh = disc.mesh
    ua, ub = u[mesh.boundary_edges.T]
    s = ((ub - ua) / mesh.boundary_lengths)[:, None]
    if spec.bc == "neumann":
        d, dd_du = np.full((len(ua), 2), spec.c), 0.0
    else:
        d = -spec.alpha * (ua[:, None] * (1.0 - _QXI) + ub[:, None] * _QXI)
        dd_du = -spec.alpha
    rad = np.sqrt(1.0 + (d ** 2 + s ** 2))
    return s, d, dd_du, rad, d / rad


def _cell_terms(mesh, u):
    """Constant gradient of ``u`` on each cell and w = 1 + |grad u|^2."""
    grads = mesh.cell_gradients(u)
    return grads, 1.0 + np.einsum("mi,mi->m", grads, grads)


def compatible_scale(field, spec, disc):
    """Compatible flux scale s_hat = H * weighted volume / weighted flux
    integral of the unscaled Neumann profile g of ``field``: the scale at
    which the entries of :func:`residual` sum to zero."""
    g = boundary_flux(field, spec, disc)
    return spec.H * disc.volume / float(np.sum(disc.wq * g))


# -- residual ----------------------------------------------------------------

def residual(field, spec, disc, scale=1.0):
    """Weak-form residual, one entry per vertex.

    entry_i = int T(grad u) . grad phi_i + int H phi_i - bint g phi_i,
    with the r^m measure weight of ``disc`` applied to every integral.  The
    boundary term is ``scale`` times the conormal flux g of
    :func:`boundary_flux`; Neumann data carries its flux scale there (see
    :func:`compatible_scale`), Robin data the default one.
    """
    mesh = disc.mesh
    grads, w = _cell_terms(mesh, field.values)
    flux = grads / np.sqrt(w)[:, None]
    gx, gy = mesh.basis_gradients
    cell = disc.aw[:, None] * (gx * flux[:, :1] + gy * flux[:, 1:]
                               + spec.H / 3.0)

    wg = disc.wq * (scale * boundary_flux(field, spec, disc))
    edge = -np.concatenate([np.sum(wg * (1.0 - _QXI)[None, :], axis=1),
                            np.sum(wg * _QXI[None, :], axis=1)])
    return np.bincount(disc.scatter, minlength=mesh.n_vertices,
                       weights=np.concatenate([cell.T.ravel(), edge]))


# -- Jacobian ----------------------------------------------------------------

def jacobian(field, spec, disc, scale=1.0):
    """Exact derivative of :func:`residual`, a :class:`~pmclab.sparse.Csr`.

    Includes the boundary-flux derivatives with respect to the endpoint
    values and the tangential difference quotient.  For Neumann data the
    flux ``scale`` is one more unknown, ordered after the N vertex values,
    so the result is the (N+1) x (N+1) bordered matrix [[J, -E], [e^T, 0]]:
    J is the derivative at fixed scale, E the unscaled flux load
    bint g phi_i (the derivative of the residual in the scale is -E), and
    the last row, one at the last vertex, fixes the gauge of a Newton
    correction, which J leaves free; its right-hand side is zero.

    Only values are assembled, into the pattern of ``disc`` (see
    :meth:`Discretization.jacobian_pattern`): each entry is added straight
    into the CSR data at its slot, one pair of local vertices (i, j) at a
    time over all cells, so no per-cell block is formed.  The cell entry
    (i, j) is aw / sqrt(w) (grad phi_i . grad phi_j - p_i p_j / w) with
    p = grad u . grad phi and w = 1 + |grad u|^2, i.e. grad phi_i . dT
    grad phi_j for dT = (I - g g^T / w) / sqrt(w), whose eigenvalues
    w^-3/2 and w^-1/2 are positive; it is symmetric in (i, j), so each of
    the six pairs i <= j is computed once and added at both its slots.
    """
    neumann = spec.bc == "neumann"
    mesh = disc.mesh
    u = field.values
    indptr, indices, slot = disc.jacobian_pattern(neumann)
    nnz = len(indices)
    n_cell = 9 * mesh.n_cells

    grads, w = _cell_terms(mesh, u)
    gx, gy = mesh.basis_gradients
    p = gx * grads[:, :1] + gy * grads[:, 1:]
    q = p * (1.0 / w)[:, None]
    coef = disc.aw / np.sqrt(w)
    data = np.zeros(nnz)
    cell_slot = slot[:n_cell].reshape(mesh.n_cells, 9)
    for i in range(3):
        for j in range(i, 3):
            v = coef * (gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]
                        - q[:, i] * p[:, j])
            np.add.at(data, cell_slot[:, 3 * i + j], v)
            if j != i:
                np.add.at(data, cell_slot[:, 3 * j + i], v)

    # d residual_i / d u_k = -scale * bint dg/du_k phi_i, by the chain through
    # dg/dd = (1 + s^2) / rad^3 and dg/ds = -d s / rad^3 at each
    # Gauss point q
    s, d, dd_du, rad, g = _conormal(u, spec, disc)
    dg_du = dd_du * (1.0 + s ** 2) / rad ** 3
    dg_ds = -d * s / rad ** 3
    ds_da, ds_db = -1.0 / mesh.boundary_lengths, 1.0 / mesh.boundary_lengths
    phi = np.stack([1.0 - _QXI, _QXI])          # phi[k, q] for k in (a, b)
    vals = []
    for k, dsk in ((0, ds_da), (1, ds_db)):
        dgk = dg_du * phi[k] + dg_ds * dsk[:, None]
        for i in (0, 1):
            vals.append(-scale * np.sum(disc.wq * dgk * phi[i], axis=1))
    if neumann:
        # the scale's column -E at the edge tails and heads, the gauge
        for k in (0, 1):
            vals.append(-np.sum(disc.wq * g * phi[k], axis=1))
        vals.append([1.0])
    np.add.at(data, slot[n_cell:], np.concatenate(vals))

    size = len(indptr) - 1
    return Csr(data, indices, indptr, (size, size))


def ellipticity_margins(field):
    """Smallest eigenvalues of the per-cell flux derivative (must be > 0).

    The two eigenvalues of dT are w^-3/2 along the gradient and w^-1/2
    across it, with w = 1 + |grad u|^2; both are computed explicitly so
    the positivity assertion is a measurement, not an assumption.
    """
    w = _cell_terms(field.mesh, field.values)[1]
    return float(np.min(w ** -1.5)), float(np.min(w ** -0.5))


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


def neumann_gate(disc, spec):
    """Divergence-theorem necessary condition for Neumann data, on the
    measures of ``disc``.

    Any solution satisfies H |Omega| = total conormal flux <= cap * L with
    cap = c / sqrt(1 + c^2), so a positive margin cap*L - H|Omega| is
    necessary (not sufficient) for solvability.  L and |Omega| are
    ``disc.boundary_measure`` and ``disc.volume``, the r^m-weighted mesh
    measures that the compatible flux scale s_hat balances against; the
    axis of a meridian mesh adds zero to L.
    Margins within a small relative band of zero are flagged borderline;
    the exactly compatible radial data sits on that boundary.

    Returns the report, None for Robin data, and raises
    :class:`InfeasibleProblemError` carrying it when the bound is violated.
    """
    if spec.bc != "neumann":
        return None
    L, area = disc.boundary_measure, disc.volume
    cap = spec.c / np.sqrt(1.0 + spec.c ** 2)
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
