"""Damped Newton iteration, sparse linear solves, and homotopy continuation.

Neumann problems are gauge invariant under additive constants, and their
flux scale s (see :mod:`pmclab.assembly`) is a Newton unknown beside the
field: each correction solves the bordered system of
:func:`~pmclab.assembly.jacobian`, whose last row fixes the correction at
the last vertex, and returned fields are mean-normalized.  The converged s
is reported as ``flux_scale``.

Every linear system, Robin or Neumann, is a nonsingular sparse matrix
solved the same way: a short restarted GMRES in double precision,
preconditioned on the right by a single-precision sparse LU of the matrix.
With D = |diag A| (a zero entry scales by one), SuperLU factors
S = D^-1/2 A D^-1/2 in float32 (symmetric minimum-degree ordering of
A^T + A, threshold pivoting), and the preconditioner D^-1/2 S^-1 D^-1/2
takes and returns float64 vectors (see :func:`_factor`).  A Newton solve,
and a whole homotopy continuation, keeps the last LU it factored for its
later systems.  The GMRES residual is the unpreconditioned one, and a
solution is returned only once ||b - A x|| <= 1e-11 ||b|| has been
computed explicitly: an inexact Newton step, far inside the Newton
tolerance, whatever the precision of the preconditioner.  Only when GMRES
misses that tolerance is the current system factored afresh, kept, and
GMRES run again on the new LU.  :class:`SolveReport` records the
factorizations and the Krylov iterations of every Newton iteration.

Continuation is a predictor-corrector walk over a schedule of homotopy
parameters.  Once two steps have converged, each Newton solve starts from
the secant extrapolation of the last two (Allgower & Georg, *Numerical
Continuation Methods*, 1990), which mostly leaves one Newton correction per
step; the first step starts from zero and the second from the first.  The
critical point census is recorded after each converged step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

# called as spla.splu: perfbench proxies spla to count LU fill (ROADMAP 7)
from . import sparse as spla
from .assembly import (ScalarField, compatible_scale, ellipticity_margins,
                       jacobian, neumann_gate, residual)
from .critical import find_critical_points
from .errors import InvalidParameterError, LinearSolveFailure, SolverFailure
from .sparse import Csr

_MIN_DT = 1.0 / 320.0

# GMRES preconditioned by a kept LU: relative tolerance on the true residual,
# Krylov space size per cycle, and number of cycles before refactoring
_GMRES_RTOL = 1e-11
_GMRES_RESTART = 20
_GMRES_MAXITER = 3

# threshold pivoting of the preconditioner's LU: a diagonal pivot is kept
# while it is at least this fraction of the largest entry in its column
_DIAG_PIVOT_THRESH = 0.01

# Armijo backtracking on ||F||_2: step reduction factor, sufficient-decrease
# constant, and number of halvings before the line search stalls
_ARMIJO_FACTOR = 0.5
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 20

# Newton stops once the max norm of the residual is at most _NEWTON_TOL, and
# fails after _MAX_ITER iterations
_NEWTON_TOL = 1e-10
_MAX_ITER = 50


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_residual_norm: float
    damping_history: list = dc_field(default_factory=list)
    normalization: str = "none"
    t: float = 1.0
    flux_scale: float | None = None
    ellipticity_min: float | None = None
    message: str = ""
    factorizations: int = 0
    # GMRES iterations of each Newton iteration, both runs counted where
    # a missed GMRES on the kept LU was followed by a fresh factorization
    krylov_iterations: list = dc_field(default_factory=list)


@dataclass
class HomotopyStep:
    t: float
    field_min: float
    field_max: float
    n_critical: int
    n_minima: int
    n_maxima: int
    n_saddles: int
    morse_ok: bool
    records: list = dc_field(default_factory=list)
    solve: SolveReport | None = None


@dataclass
class HomotopyTrace:
    steps: list = dc_field(default_factory=list)
    completed: bool = False
    # t of every failed attempt that was retried at half the step
    halved_at: list = dc_field(default_factory=list)


def linear_solve(A, b, kept=None):
    """Solve the sparse system A x = b; returns ``(x, info)``.

    ``A`` is a square CSR matrix without duplicate entries, a
    :class:`~pmclab.sparse.Csr` or a SciPy one: only its ``data``,
    ``indices``, ``indptr``, ``shape`` and ``@`` are used.  GMRES on ``A``,
    preconditioned on the right by a sparse LU of it (see
    :class:`_KeptFactor`).  Every solution is checked against ``A``:
    :class:`LinearSolveFailure` is raised unless ||A x - b|| <= 1e-6 ||b||,
    which a singular system fails.

    ``info`` holds ``krylov_iterations`` and ``factored``.
    """
    b = np.asarray(b, dtype=float)
    kept = _KeptFactor() if kept is None else kept
    x, krylov, factored = kept.solve(A, b)
    bnorm = np.linalg.norm(b)
    if x is None or not np.all(np.isfinite(x)) or (
            bnorm > 0 and np.linalg.norm(A @ x - b) > 1e-6 * bnorm):
        raise LinearSolveFailure(
            "numerically singular system (large solve residual)")
    return x, {"krylov_iterations": krylov, "factored": factored}


class _KeptFactor:
    """The sparse LU of the last system factored by one solve, kept to
    precondition GMRES on the later linear systems of that solve."""

    def __init__(self):
        self.lu = None

    def drop(self):
        self.lu = None

    def solve(self, A, rhs):
        """Solve A x = rhs by GMRES preconditioned by the kept LU.

        When that misses, or no LU of the right size is kept, ``A`` is
        factored, kept, and GMRES runs again on the fresh LU.  Returns
        ``(x, krylov_iterations, factored)``, the iterations of both GMRES
        runs counted; x is None if GMRES misses on the fresh LU too, which
        :func:`linear_solve` reports as a singular system.
        """
        missed = 0
        if self.lu is not None and self.lu.shape == A.shape:
            x, missed = _preconditioned_gmres(self.lu, A, rhs)
            if x is not None:
                return x, missed, False
        self.lu = _factor(A)
        x, iterations = _preconditioned_gmres(self.lu, A, rhs)
        return x, missed + iterations, True


def _factor(A):
    """The preconditioner of GMRES: a single-precision SuperLU of
    S = D^-1/2 A D^-1/2, where D = |diag A| (a zero entry scales by one).

    D and a float32 S are read straight from the CSR arrays of ``A``, so
    no double-precision copy of the matrix exists while it is factored.  The
    scaling keeps S inside the float32 range where A is not: the meridian
    weight r^(n-2) underflows it at large n.  SuperLU orders S by minimum
    degree on A^T + A in symmetric mode and keeps a diagonal pivot while it
    is at least ``_DIAG_PIVOT_THRESH`` times the largest entry of its
    column, which bounds the fill on rough-field Jacobians.  GMRES still
    accepts x on the true residual in double precision (mixed-precision
    preconditioning: Arioli & Duff 2009; Carson & Higham 2018).
    """
    rows = np.repeat(np.arange(A.shape[0], dtype=np.intc), np.diff(A.indptr))
    on = A.indices == rows
    diag = np.bincount(rows[on], weights=A.data[on], minlength=A.shape[0])
    d = 1.0 / np.sqrt(np.where(diag != 0.0, np.abs(diag), 1.0))
    S = Csr((A.data * d[rows] * d[A.indices]).astype(np.float32),
            A.indices, A.indptr, A.shape)
    del rows, on            # not held through the factorization
    try:
        lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"singular system: sparse factorization failed ({exc})") from exc
    return _ScaledLU(lu, d)


class _ScaledLU:
    """M^-1 v = D^-1/2 LU^-1 (D^-1/2 v) of :func:`_factor`: float64 in and
    out, the float32 LU applied in between."""

    def __init__(self, lu, d):
        self.lu, self.d, self.shape = lu, d, lu.shape

    def solve(self, v):
        return self.d * self.lu.solve((self.d * v).astype(np.float32))


def _dot(a, b):
    """a . b by NumPy's pairwise summation, not BLAS, whose threaded sums
    would make the result depend on the thread count."""
    return float(np.add.reduce(a * b))


def _preconditioned_gmres(lu, A, rhs):
    """Restarted GMRES on ``A``, preconditioned on the right by
    ``lu.solve`` (Saad & Schultz 1986).

    Each cycle builds the Krylov space of A M^-1 from the true residual
    r = rhs - A x (modified Gram-Schmidt Arnoldi, Givens rotations) and
    keeps z_k = M^-1 v_k, so x moves by sum_k y_k z_k and the LU is applied
    exactly once per Krylov iteration.  Z is needed although M is fixed:
    the float32 LU is not linear in floating point, so M^-1 (V y) is not
    sum_k y_k z_k, while each z_k enters the Arnoldi relation as computed.
    Computed as M^-1 (V y), x left relative residuals of 3e-4 to 5e-4
    after the first cycle on the Robin ellipse homotopy (h 0.02) and the
    Robin ball at n_dim 6 (h 0.0125), and the LU applications per solve
    rose from 5.5 to 13.3 and from 4.7 to 12.0.  The rotated right-hand
    side estimates ||rhs - A x|| itself, not a preconditioned residual; once
    it reaches ``_GMRES_RTOL`` ||rhs||, or after ``_GMRES_RESTART``
    iterations, the residual is computed explicitly, and only a miss opens
    another cycle.  Every length-N sum is a :func:`_dot`, so the result does
    not depend on the BLAS thread count.  Returns ``(x, iterations)``, with
    x None when that residual still misses after ``_GMRES_MAXITER`` cycles.
    """
    m = _GMRES_RESTART
    x = np.zeros(rhs.shape[0])
    r, beta = rhs, math.sqrt(_dot(rhs, rhs))
    target = _GMRES_RTOL * beta
    # allocated per call: only the rows a call touches become resident, and
    # they are released when it returns; a workspace kept across calls would
    # hold the rows of its longest call beside every later Jacobian and LU
    V = np.empty((m + 1, r.shape[0]))
    Z = np.empty((m, r.shape[0]))
    R = np.zeros((m + 1, m))            # Hessenberg matrix, rotated to upper
    cs, sn = np.zeros(m), np.zeros(m)
    iterations = 0
    for _ in range(_GMRES_MAXITER):
        if beta <= target:
            break
        V[0] = r / beta
        g = np.zeros(m + 1)
        g[0] = beta
        k = 0
        while k < m:
            Z[k] = lu.solve(V[k])
            iterations += 1
            w = A @ Z[k]
            for i in range(k + 1):
                R[i, k] = _dot(w, V[i])
                w -= R[i, k] * V[i]
            h = math.sqrt(_dot(w, w))
            for i in range(k):
                R[i, k], R[i + 1, k] = (cs[i] * R[i, k] + sn[i] * R[i + 1, k],
                                        cs[i] * R[i + 1, k] - sn[i] * R[i, k])
            rho = math.hypot(R[k, k], h)
            if rho == 0.0:
                return None, iterations
            cs[k], sn[k] = R[k, k] / rho, h / rho
            R[k, k] = rho
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            k += 1
            if abs(g[k]) <= target:
                break
            V[k] = w / h
        for y_k, z_k in zip(np.linalg.solve(R[:k, :k], g[:k]), Z):
            x += y_k * z_k
        r = rhs - A @ x
        beta = math.sqrt(_dot(r, r))
    return (x if beta <= target else None), iterations


def newton_solve(disc, spec, init=None, kept=None):
    """Solve the discrete problem of a :class:`Discretization` by damped
    Newton iteration.

    Returns ``(field, report)`` with the max-norm residual at or below
    ``_NEWTON_TOL`` (1e-10), reached within ``_MAX_ITER`` (50) iterations.
    Armijo backtracking on the Euclidean residual norm keeps accepted steps
    monotone.  Neumann data is gated by
    :func:`~pmclab.assembly.neumann_gate` before any iteration, and its flux
    scale, started at the compatible scale of the initial field, is
    iterated with the field; nonconvergence, a stalled line search and a
    linear breakdown raise :class:`SolverFailure` carrying the report, whose
    ``ellipticity_min`` counts the iterate the solve failed at.  The LU
    factored for the first correction preconditions the later ones (see
    :func:`linear_solve`); ``kept`` lets :func:`homotopy_solve` share it
    across its steps.
    """
    kept = _KeptFactor() if kept is None else kept
    mesh = disc.mesh
    n = mesh.n_vertices
    neumann_gate(disc, spec)
    neumann = spec.bc == "neumann"

    if init is None:
        u = np.zeros(n)
    else:
        u = np.array(init.values if isinstance(init, ScalarField) else init,
                     dtype=float)
        if not np.all(np.isfinite(u)):
            raise InvalidParameterError("initial guess must be finite")

    report = SolveReport(converged=False, iterations=0,
                         final_residual_norm=math.inf,
                         normalization="mean-zero" if neumann else "none",
                         t=spec.t)
    field = ScalarField(mesh, u)
    scale = compatible_scale(field, spec, disc) if neumann else 1.0
    F = residual(field, spec, disc, scale)
    norm2 = float(np.linalg.norm(F))
    ell_min = math.inf

    for it in range(_MAX_ITER):
        inf_norm = float(np.abs(F).max())
        report.iterations = it
        report.final_residual_norm = inf_norm
        if inf_norm <= _NEWTON_TOL:
            report.converged = True
            break
        try:
            # a Neumann correction (du, ds) has the gauge row du[-1] = 0; no
            # name holds the Jacobian, so it is freed once its solve returns
            delta, info = linear_solve(
                jacobian(field, spec, disc, scale),
                np.append(-F, 0.0) if neumann else -F, kept=kept)
        except LinearSolveFailure as exc:
            margin = _fail(report, "linear solve broke down", ell_min, field,
                           spec)
            raise SolverFailure(
                f"linear breakdown at t={spec.t}, smallest ellipticity margin "
                f"{margin:.3g}: {exc}", report=report) from exc
        report.factorizations += info["factored"]
        report.krylov_iterations.append(info["krylov_iterations"])

        beta = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = ScalarField(mesh, u + beta * delta[:n])
            trial_scale = scale + beta * delta[n] if neumann else scale
            F_trial = residual(trial, spec, disc, trial_scale)
            trial_norm2 = float(np.linalg.norm(F_trial))
            if (trial_norm2 <= (1.0 - _ARMIJO_C1 * beta) * norm2
                    or float(np.abs(F_trial).max()) <= _NEWTON_TOL):
                accepted = True
                break
            beta *= _ARMIJO_FACTOR
        if not accepted:
            _fail(report, "line search stalled", ell_min, field, spec)
            raise SolverFailure("Newton line search stalled", report=report)

        u = trial.values
        field = trial
        scale = trial_scale
        F = F_trial
        norm2 = trial_norm2
        report.damping_history.append(beta)
        ell_min = min(ell_min, min(ellipticity_margins(field, spec)))
    else:
        report.iterations = _MAX_ITER
        report.final_residual_norm = float(np.abs(F).max())
        _fail(report, "max iterations reached", ell_min, field, spec)
        raise SolverFailure("Newton did not converge", report=report)

    if neumann:
        field = ScalarField(mesh, u - u.mean())
        report.flux_scale = float(scale)
    report.ellipticity_min = None if ell_min is math.inf else float(ell_min)
    return field, report


def _fail(report, message, ell_min, field, spec):
    """Mark ``report`` failed with ``message``.  Its ``ellipticity_min``,
    returned, is the smallest margin of the accepted iterates and of
    ``field``, the iterate the solve failed at."""
    report.message = message
    report.ellipticity_min = min(ell_min, *ellipticity_margins(field, spec))
    return report.ellipticity_min


def homotopy_solve(disc, spec, schedule):
    """Continuation in the homotopy parameter up to t = 1.

    Each Newton solve starts from the secant through the last two converged
    steps, u_1 + (t - t_1)/(t_1 - t_0) (u_1 - u_0); the second step starts
    from the first, the first from zero.  On nonconvergence the step is
    halved, down to dt = 1/320, and retried from the secant of the same two
    steps; the t of every halved attempt is recorded in ``halved_at``.  A
    failure that cannot be halved raises the step's :class:`SolverFailure`
    with the partial trace attached as ``trace``.  The LU kept by one Newton
    solve preconditions the next (see :func:`linear_solve`); it is dropped
    when a step fails.  After every converged step the critical points are
    located and their census, with the step's :class:`SolveReport`, recorded
    in the trace.  Nothing is asserted here; verification is a separate
    concern.
    """
    schedule = [float(t) for t in schedule]
    if any(not 0.0 <= t <= 1.0 for t in schedule):
        raise InvalidParameterError("schedule values must lie in [0, 1]")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameterError("schedule must be strictly increasing")
    if abs(schedule[-1] - 1.0) > 1e-12:
        raise InvalidParameterError("schedule must end at t = 1")

    trace = HomotopyTrace()
    kept = _KeptFactor()
    path = []               # (t, field) of the last two converged steps
    pending = list(schedule)
    while pending:
        t_next = pending[0]
        try:
            field, report = newton_solve(disc, spec.at_t(t_next),
                                         init=_predict(path, t_next),
                                         kept=kept)
        except SolverFailure as exc:
            kept.drop()
            if not path or t_next - path[-1][0] <= _MIN_DT:
                exc.trace = trace
                raise
            trace.halved_at.append(t_next)
            pending.insert(0, 0.5 * (path[-1][0] + t_next))
            continue
        path = [*path[-1:], (t_next, field)]
        pending.pop(0)
        if not pending:
            kept.drop()
        trace.steps.append(_census_step(field, spec.at_t(t_next), report))
    trace.completed = True
    return field, trace


def _predict(path, t):
    """Start of the Newton solve at ``t``: the secant through the last two
    converged steps, the last step while there is only one, zero before
    the first."""
    if not path:
        return None
    t1, f1 = path[-1]
    if len(path) == 1:
        return f1
    t0, f0 = path[-2]
    return f1.values + ((t - t1) / (t1 - t0)) * (f1.values - f0.values)


def _census_step(field, spec_t, solve_report):
    records = find_critical_points(field, spec_t)
    classes = [r.classification for r in records]
    return HomotopyStep(
        t=spec_t.t,
        field_min=float(field.values.min()),
        field_max=float(field.values.max()),
        n_critical=len(records),
        n_minima=classes.count("minimum"),
        n_maxima=classes.count("maximum"),
        n_saddles=classes.count("saddle"),
        morse_ok=bool(records) and all(c != "degenerate" for c in classes),
        records=records,
        solve=solve_report,
    )

