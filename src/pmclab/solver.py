"""Damped Newton iteration, constrained linear solves, and homotopy continuation.

Neumann problems are gauge invariant under additive constants and their
residual sums to zero for every field, so the Jacobian J has the constants
as both its right and left null vector.  Each Newton correction is the
mean-zero solution of J x = -F: the constant gauge is eliminated by pinning
one vertex and solving with only the sparse local part of J, the rank-one
coupling from the flux compatibility rescale is applied by Sherman-Morrison
or inside the Krylov operator (see :func:`linear_solve`), and returned
fields are mean-normalized.

A Newton solve, and a whole homotopy continuation, keeps the sparse LU of
the last block it factored (SuperLU with the symmetric minimum-degree
ordering of A^T + A) and solves every later linear system by GMRES on that
iteration's exact Jacobian, with the kept LU as preconditioner.  Only when
GMRES misses its tolerance is the current block factored, kept, and solved
directly.  A GMRES correction has a true residual of at most 1e-11 times
its right-hand side: an inexact Newton step, far inside the Newton
tolerance.  :class:`SolveReport` records the factorizations and the Krylov
iterations of every Newton iteration.

Continuation walks a schedule of homotopy parameters, warm-starting each
solve from the previous step and recording the critical point census after
each converged step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (RankOneJacobian, ScalarField, ellipticity_margins,
                       flux_scale, jacobian, neumann_gate, residual)
from .critical import find_critical_points
from .errors import InvalidParameterError, LinearSolveFailure, SolverFailure

_MIN_DT = 1.0 / 320.0

# GMRES preconditioned by a kept LU: relative tolerance on the true residual,
# Krylov space size per cycle, and number of cycles before refactoring
_GMRES_RTOL = 1e-11
_GMRES_RESTART = 20
_GMRES_MAXITER = 3


@dataclass
class SolverOptions:
    newton_tol: float = 1e-10      # absolute, max norm of the residual
    max_iter: int = 50
    armijo_factor: float = 0.5
    armijo_c1: float = 1e-4
    max_backtracks: int = 20


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
    # GMRES iterations of each Newton iteration; 0 where it solved directly
    krylov_iterations: list = dc_field(default_factory=list)

    def as_dict(self):
        return asdict(self)


@dataclass
class HomotopyStep:
    t: float
    field_min: float
    field_max: float
    field_mean: float
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
    schedule: list = dc_field(default_factory=list)
    completed: bool = False


def linear_solve(A, b, constraint="none", return_info=False, kept=None):
    """Sparse solve, optionally with a zero-mean constraint.

    ``A`` is a sparse matrix or a :class:`RankOneJacobian` ``L + u v^T``;
    the rank-one term is never formed.  A direct solve applies it by
    Sherman-Morrison: with z = L^-1 u and y = L^-1 rhs,
    x = y - z (v^T y) / (1 + v^T z), one extra back-solve against the same
    factorization of the sparse part.

    With ``constraint="mean-zero"`` the result is that of the bordered
    system [[A, 1], [1^T, 0]] [x, lambda] = [b, 0], computed without
    factoring it.  A Neumann Jacobian satisfies 1^T A = 0 (its residual sums
    to zero for every field) and A 1 = 0 (gauge invariance), so multiplying
    the first block row by 1^T gives lambda = mean(b), and A x = b - lambda 1
    is consistent.  Its last row is then implied by the others, so the last
    unknown is pinned to zero, the leading (n-1) block is solved, and the
    result is shifted to mean zero.  A nonzero lambda is flagged as an
    incompatible right-hand side.

    ``kept`` (a ``_KeptFactor``, shared by the linear systems of one Newton
    or homotopy solve) holds the LU of the last block factored.  If it holds
    one of the right size, the block system, rank-one term included, is
    solved by GMRES (relative tolerance 1e-11 on the true residual, restart
    20, at most 3 cycles) preconditioned by that LU.  Without a kept LU, or
    when GMRES misses its tolerance, the block is factored (SuperLU,
    ``MMD_AT_PLUS_A`` ordering in symmetric mode, partial pivoting kept),
    the factor is kept, and the system is solved directly.  With
    ``kept=None`` every call factors afresh.

    Every solution is checked against the full operator:
    ||A x - (b - lambda 1)|| <= 1e-6 ||b||.  That check fails, and
    :class:`LinearSolveFailure` is raised, for singular systems and whenever
    elimination cannot stand in for the bordered solve (a nullspace beyond
    the constants, or a left null vector that is not constant).

    The info dict holds the ``multiplier`` lambda, the ``incompatible``
    flag, ``krylov_iterations`` (0 for a direct solve) and ``factored``.
    """
    b = np.asarray(b, dtype=float)
    kept = _KeptFactor() if kept is None else kept
    if isinstance(A, RankOneJacobian):
        L, u, v = A.local, A.u, A.v
    else:
        L, u, v = A, None, None
    if constraint == "none":
        lam = 0.0
        x, krylov, factored = kept.solve(L, u, v, b)
    elif constraint == "mean-zero":
        lam = float(b.mean())
        keep = slice(0, A.shape[0] - 1)
        x = np.zeros(A.shape[0])
        x[keep], krylov, factored = kept.solve(
            sp.csr_matrix(L)[keep, keep],
            None if u is None else u[keep], None if v is None else v[keep],
            b[keep] - lam)
        x -= x.mean()
    else:
        raise InvalidParameterError(f"unknown constraint {constraint!r}")

    bnorm = np.linalg.norm(b)
    if not np.all(np.isfinite(x)) or (
            bnorm > 0 and np.linalg.norm(A @ x - (b - lam)) > 1e-6 * bnorm):
        raise LinearSolveFailure(
            "numerically singular system (large solve residual); a "
            "constant nullspace needs the mean-zero constraint, and the "
            "mean-zero constraint needs constant left and right null vectors")
    info = {"multiplier": lam,
            "incompatible": bool(abs(lam) > 1e-10 * max(1.0, np.abs(b).max())),
            "krylov_iterations": krylov, "factored": factored}
    return (x, info) if return_info else x


class _KeptFactor:
    """The sparse LU of the last block factored by one solve, kept to
    precondition GMRES on the later linear systems of that solve."""

    def __init__(self):
        self.lu = None

    def drop(self):
        self.lu = None

    def solve(self, L, u, v, rhs):
        """Solve (L + u v^T) x = rhs (u, v may be None).

        Returns ``(x, krylov_iterations, factored)``: GMRES preconditioned
        by the kept LU when that converges, else a direct solve with a new
        LU of L, which replaces the kept one.
        """
        if self.lu is not None and self.lu.shape == L.shape:
            x, iterations = _preconditioned_gmres(self.lu, L, u, v, rhs)
            if x is not None:
                return x, iterations, False
        self.lu = _factor(L)
        return _direct_solve(self.lu, u, v, rhs), 0, True


def _factor(L):
    try:
        return spla.splu(sp.csc_matrix(L), permc_spec="MMD_AT_PLUS_A",
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"sparse factorization failed ({exc}); a singular system "
            "usually means a missing mean-zero constraint, or a nullspace "
            "beyond the constants") from exc


def _direct_solve(lu, u, v, rhs):
    """Solve (L + u v^T) x = rhs with the LU of L, by Sherman-Morrison."""
    y = lu.solve(rhs)
    if u is None:
        return y
    z = lu.solve(u)
    vz = float(v @ z)
    denom = 1.0 + vz
    if not abs(denom) > 1e-12 * max(1.0, abs(vz)):
        raise LinearSolveFailure(
            f"rank-one update is singular (1 + v^T z = {denom:.3g})")
    return y - z * (float(v @ y) / denom)


def _preconditioned_gmres(lu, L, u, v, rhs):
    """GMRES on L + u v^T with ``lu.solve`` as preconditioner; returns
    ``(x, iterations)``, with x None when the true residual misses
    ``_GMRES_RTOL``."""
    if u is None:
        matvec = L.__matmul__
    else:
        def matvec(x):
            return L @ x + u * (v @ x)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, status = spla.gmres(
        spla.LinearOperator(L.shape, matvec=matvec, dtype=float), rhs,
        rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
        maxiter=_GMRES_MAXITER,
        M=spla.LinearOperator(L.shape, matvec=lu.solve, dtype=float),
        callback=count, callback_type="pr_norm")
    return (x if status == 0 else None), iterations


def newton_solve(disc, spec, init=None, opts=None, kept=None):
    """Solve the discrete problem of a :class:`Discretization` by damped
    Newton iteration.

    Returns ``(field, report)`` with the max-norm residual at or below
    ``opts.newton_tol``.  Armijo backtracking on the Euclidean residual norm
    keeps accepted steps monotone.  Neumann data is gated by
    :func:`~pmclab.assembly.neumann_gate` before any iteration;
    nonconvergence raises :class:`SolverFailure` carrying the report.  The
    LU factored for the first correction preconditions the later ones (see
    :func:`linear_solve`); ``kept`` lets :func:`homotopy_solve` share it
    across its steps.
    """
    opts = opts or SolverOptions()
    kept = _KeptFactor() if kept is None else kept
    mesh = disc.mesh
    neumann_gate(disc, spec)
    constraint = "mean-zero" if spec.bc == "neumann" else "none"

    if init is None:
        u = np.zeros(mesh.n_vertices)
    else:
        u = np.array(init.values if isinstance(init, ScalarField) else init,
                     dtype=float)
        if not np.all(np.isfinite(u)):
            raise InvalidParameterError("initial guess must be finite")

    report = SolveReport(converged=False, iterations=0,
                         final_residual_norm=math.inf,
                         normalization=constraint,
                         t=spec.t)
    field = ScalarField(mesh, u)
    F = residual(field, spec, disc)
    norm2 = float(np.linalg.norm(F))
    ell_min = math.inf

    for it in range(opts.max_iter):
        inf_norm = float(np.abs(F).max())
        report.iterations = it
        report.final_residual_norm = inf_norm
        if inf_norm <= opts.newton_tol:
            report.converged = True
            break
        J = jacobian(field, spec, disc)
        delta, info = linear_solve(J, -F, constraint=constraint,
                                   return_info=True, kept=kept)
        report.factorizations += info["factored"]
        report.krylov_iterations.append(info["krylov_iterations"])

        beta = 1.0
        accepted = False
        for _ in range(opts.max_backtracks + 1):
            trial = ScalarField(mesh, u + beta * delta)
            F_trial = residual(trial, spec, disc)
            trial_norm2 = float(np.linalg.norm(F_trial))
            if (trial_norm2 <= (1.0 - opts.armijo_c1 * beta) * norm2
                    or float(np.abs(F_trial).max()) <= opts.newton_tol):
                accepted = True
                break
            beta *= opts.armijo_factor
        if not accepted:
            report.message = "line search stalled"
            raise SolverFailure("Newton line search stalled", report=report)

        u = trial.values
        field = trial
        F = F_trial
        norm2 = trial_norm2
        report.damping_history.append(beta)
        ell_min = min(ell_min, min(ellipticity_margins(field, spec)))
    else:
        report.iterations = opts.max_iter
        report.final_residual_norm = float(np.abs(F).max())
        report.message = "max iterations reached"
        raise SolverFailure("Newton did not converge", report=report)

    if constraint == "mean-zero":
        u = u - u.mean()
        field = ScalarField(mesh, u)
    report.flux_scale = (flux_scale(field, spec, disc)
                         if spec.bc == "neumann" else None)
    report.ellipticity_min = None if ell_min is math.inf else float(ell_min)
    return field, report


def homotopy_solve(disc, spec, schedule, opts=None):
    """Continuation in the homotopy parameter up to t = 1.

    Warm-starts each Newton solve from the previous step; on nonconvergence
    the step is halved down to dt = 1/320 before giving up.  The LU kept by
    one Newton solve preconditions the next (see :func:`linear_solve`); it
    is dropped when a step fails.  After every converged step the critical
    points are located and their census, with the step's
    :class:`SolveReport`, recorded in the trace.  Nothing is asserted here;
    verification is a separate concern.
    """
    schedule = [float(t) for t in schedule]
    if any(not 0.0 <= t <= 1.0 for t in schedule):
        raise InvalidParameterError("schedule values must lie in [0, 1]")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameterError("schedule must be strictly increasing")
    if abs(schedule[-1] - 1.0) > 1e-12:
        raise InvalidParameterError("schedule must end at t = 1")

    trace = HomotopyTrace(schedule=list(schedule))
    kept = _KeptFactor()
    field = None
    t_prev = None
    pending = list(schedule)
    while pending:
        t_next = pending[0]
        try:
            spec_t = spec.at_t(t_next)
            field_next, report = newton_solve(disc, spec_t, init=field,
                                              opts=opts, kept=kept)
        except (SolverFailure, LinearSolveFailure) as exc:
            kept.drop()
            if t_prev is None or t_next - t_prev <= _MIN_DT:
                failure = exc if isinstance(exc, SolverFailure) else \
                    SolverFailure(f"linear breakdown at t={t_next}: {exc}")
                failure.trace = trace
                raise failure from exc
            pending.insert(0, 0.5 * (t_prev + t_next))
            continue
        field = field_next
        t_prev = t_next
        pending.pop(0)
        if not pending:
            kept.drop()
        trace.steps.append(_census_step(field, spec.at_t(t_next), report))
    trace.completed = True
    return field, trace


def _census_step(field, spec_t, solve_report):
    records = find_critical_points(field, spec_t)
    classes = [r.classification for r in records]
    return HomotopyStep(
        t=spec_t.t,
        field_min=float(field.values.min()),
        field_max=float(field.values.max()),
        field_mean=float(field.values.mean()),
        n_critical=len(records),
        n_minima=classes.count("minimum"),
        n_maxima=classes.count("maximum"),
        n_saddles=classes.count("saddle"),
        morse_ok=bool(records) and all(c != "degenerate" for c in classes),
        records=records,
        solve=solve_report,
    )


class RadialSolution:
    """Closed-form radial solution on a disk or ball of radius R.

    For the homotopy operator with parameter t the radial profile solving
    the interior equation in dimension n is

        v'(r) = (H r / n) / sqrt(1 - (t H r / n)^2),
        v(r)  = v0 + (n / (t^2 H)) (1 - sqrt(1 - t^2 H^2 r^2 / n^2)),

    degenerating to the paraboloid v0 + H r^2 / (2n) at t = 0.  Robin data
    fixes v0 through v(R) = -v'(R)/alpha; Neumann profiles are returned with
    v0 = 0 and must be compared after mean normalization.  Neumann data is
    matched by this profile exactly when H = n c / (R sqrt(1 + t^2 c^2)).
    """

    def __init__(self, spec, R=1.0, n=None):
        self.spec = spec
        self.R = float(R)
        self.n = int(n if n is not None else spec.n_dim)
        q = spec.t * spec.H * self.R / self.n
        if q >= 1.0:
            raise InvalidParameterError(
                f"no radial graph solution: t*H*R/n = {q} >= 1")
        if spec.bc == "robin":
            self.v0 = -self.slope(self.R) / spec.alpha - self._bump(self.R)
        else:
            self.v0 = 0.0

    def _bump(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        if t < 1e-14:
            return H * r ** 2 / (2.0 * n)
        return (n / (t * t * H)) * (1.0 - np.sqrt(1.0 - (t * H * r / n) ** 2))

    def slope(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        return (H * r / n) / np.sqrt(1.0 - (t * H * r / n) ** 2)

    def __call__(self, r):
        return self.v0 + self._bump(r)

    def at_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self(np.linalg.norm(pts, axis=-1))


def radial_disk_oracle(spec, R=1.0):
    """Radial reference solution on the disk of radius R (planar case)."""
    return RadialSolution(spec, R=R, n=2)
