"""Damped Newton iteration, constrained linear solves, and homotopy continuation.

Neumann problems are gauge invariant under additive constants and their
residual sums to zero for every field, so the Jacobian J has the constants
as both its right and left null vector.  Each Newton correction is the
mean-zero solution of J x = -F: the constant gauge is eliminated by pinning
one vertex and factoring only the sparse local part of J, the rank-one
coupling from the flux compatibility rescale is applied by Sherman-Morrison
(see :func:`linear_solve`), and returned fields are mean-normalized.

Continuation walks a schedule of homotopy parameters, warm-starting each
solve from the previous step and recording the critical point census after
each converged step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (RankOneJacobian, ScalarField, ellipticity_margins,
                       flux_scale, jacobian, mesh_feasibility, residual)
from .critical import find_critical_points
from .errors import (InfeasibleProblemError, InvalidParameterError,
                     LinearSolveFailure, SolverFailure)

_MIN_DT = 1.0 / 320.0


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

    def as_dict(self):
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual_norm": self.final_residual_norm,
            "damping_history": list(self.damping_history),
            "normalization": self.normalization,
            "t": self.t,
            "flux_scale": self.flux_scale,
            "ellipticity_min": self.ellipticity_min,
            "message": self.message,
        }


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


@dataclass
class HomotopyTrace:
    steps: list = dc_field(default_factory=list)
    schedule: list = dc_field(default_factory=list)
    completed: bool = False


def linear_solve(A, b, constraint="none", return_info=False):
    """Sparse direct solve, optionally with a zero-mean constraint.

    ``A`` is a sparse matrix or a :class:`RankOneJacobian` ``L + u v^T``;
    the rank-one term is never formed but applied by Sherman-Morrison: with
    z = L^-1 u and y = L^-1 rhs, x = y - z (v^T y) / (1 + v^T z), one extra
    back-solve against the same factorization of the sparse part.

    With ``constraint="mean-zero"`` the result is that of the bordered
    system [[A, 1], [1^T, 0]] [x, lambda] = [b, 0], computed without
    factoring it.  A Neumann Jacobian satisfies 1^T A = 0 (its residual sums
    to zero for every field) and A 1 = 0 (gauge invariance), so multiplying
    the first block row by 1^T gives lambda = mean(b), and A x = b - lambda 1
    is consistent.  Its last row is then implied by the others, so the last
    unknown is pinned to zero, the leading (n-1) block is solved, and the
    result is shifted to mean zero.  A nonzero lambda is flagged as an
    incompatible right-hand side.

    Every solution is checked against the full operator:
    ||A x - (b - lambda 1)|| <= 1e-6 ||b||.  That check fails, and
    :class:`LinearSolveFailure` is raised, for singular systems and whenever
    elimination cannot stand in for the bordered solve (a nullspace beyond
    the constants, or a left null vector that is not constant).
    """
    b = np.asarray(b, dtype=float)
    if isinstance(A, RankOneJacobian):
        L, u, v = A.local, A.u, A.v
    else:
        L, u, v = A, None, None
    if constraint == "none":
        lam = 0.0
        x = _factor_solve(L, u, v, b)
    elif constraint == "mean-zero":
        lam = float(b.mean())
        keep = slice(0, A.shape[0] - 1)
        x = np.zeros(A.shape[0])
        x[keep] = _factor_solve(
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
            "incompatible": bool(abs(lam) > 1e-10 * max(1.0, np.abs(b).max()))}
    return (x, info) if return_info else x


def _factor_solve(L, u, v, rhs):
    """Solve (L + u v^T) x = rhs with one sparse LU of L (u, v may be None)."""
    try:
        lu = spla.splu(sp.csc_matrix(L))
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"sparse factorization failed ({exc}); a singular system "
            "usually means a missing mean-zero constraint, or a nullspace "
            "beyond the constants") from exc
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


def newton_solve(mesh, spec, init=None, opts=None, flux_edges=None,
                 weight_exponent=0):
    """Solve the discrete problem by damped Newton iteration.

    Returns ``(field, report)`` with the max-norm residual at or below
    ``opts.newton_tol``.  Armijo backtracking on the Euclidean residual norm
    keeps accepted steps monotone.  Infeasible Neumann data is rejected
    before any iteration; nonconvergence raises :class:`SolverFailure`
    carrying the report.
    """
    opts = opts or SolverOptions()
    if spec.bc == "neumann":
        feas = mesh_feasibility(mesh, spec, flux_edges, weight_exponent)
        if not feas.feasible:
            raise InfeasibleProblemError(
                f"Neumann data infeasible: required mean flux "
                f"{feas.required_mean_flux:.6g} exceeds bound "
                f"{feas.flux_bound:.6g} (margin {feas.margin:.6g})",
                feasibility=feas)
        constraint = "mean-zero"
    else:
        constraint = "none"

    if init is None:
        u = np.zeros(mesh.n_vertices)
    else:
        u = np.array(init.values if isinstance(init, ScalarField) else init,
                     dtype=float)
        if not np.all(np.isfinite(u)):
            raise InvalidParameterError("initial guess must be finite")

    report = SolveReport(converged=False, iterations=0,
                         final_residual_norm=math.inf,
                         normalization="mean-zero" if constraint == "mean-zero"
                         else "none",
                         t=spec.t)
    field = ScalarField(mesh, u)
    F = residual(field, spec, flux_edges, weight_exponent)
    norm2 = float(np.linalg.norm(F))
    ell_min = math.inf

    for it in range(opts.max_iter):
        inf_norm = float(np.abs(F).max())
        report.iterations = it
        report.final_residual_norm = inf_norm
        if inf_norm <= opts.newton_tol:
            report.converged = True
            break
        J = jacobian(field, spec, flux_edges, weight_exponent, split=True)
        delta = linear_solve(J, -F, constraint=constraint)

        beta = 1.0
        accepted = False
        for _ in range(opts.max_backtracks + 1):
            trial = ScalarField(mesh, u + beta * delta)
            F_trial = residual(trial, spec, flux_edges, weight_exponent)
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
    report.flux_scale = (flux_scale(field, spec, flux_edges, weight_exponent)
                         if spec.bc == "neumann" else None)
    report.ellipticity_min = None if ell_min is math.inf else float(ell_min)
    return field, report


def poisson_init(mesh, spec, opts=None, flux_edges=None, weight_exponent=0):
    """Solution of the linear t=0 problem, used as a homotopy initializer.

    Robin data is directly well-posed.  Neumann data is generically
    incompatible at t=0 (the flux integral c*L need not match H*|Omega|);
    the solve is compatibilized as documented in :mod:`pmclab.assembly` and
    the raw incompatibility c*L - H*|Omega| is reported.
    """
    spec0 = spec.at_t(0.0)
    field, report = newton_solve(mesh, spec0, opts=opts, flux_edges=flux_edges,
                                 weight_exponent=weight_exponent)
    info = {"report": report, "incompatibility": 0.0}
    if spec.bc == "neumann":
        feas = mesh_feasibility(mesh, spec0, flux_edges, weight_exponent)
        info["incompatibility"] = float(
            spec.c * feas.boundary_length - spec.H * feas.area)
    return field, info


def homotopy_solve(mesh, spec, schedule=None, opts=None, flux_edges=None,
                   weight_exponent=0):
    """Continuation in the homotopy parameter up to t = 1.

    Warm-starts each Newton solve from the previous step; on nonconvergence
    the step is halved down to dt = 1/320 before giving up.  After every
    converged step the critical points are located and their census recorded
    in the trace.  Nothing is asserted here; verification is a separate
    concern.
    """
    if schedule is None:
        schedule = np.linspace(0.0, 1.0, 11)
    schedule = [float(t) for t in schedule]
    if any(not 0.0 <= t <= 1.0 for t in schedule):
        raise InvalidParameterError("schedule values must lie in [0, 1]")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameterError("schedule must be strictly increasing")
    if abs(schedule[-1] - 1.0) > 1e-12:
        raise InvalidParameterError("schedule must end at t = 1")

    trace = HomotopyTrace(schedule=list(schedule))
    field = None
    t_prev = None
    pending = list(schedule)
    while pending:
        t_next = pending[0]
        try:
            spec_t = spec.at_t(t_next)
            field_next, report = newton_solve(mesh, spec_t, init=field,
                                              opts=opts, flux_edges=flux_edges,
                                              weight_exponent=weight_exponent)
        except (SolverFailure, LinearSolveFailure) as exc:
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
        trace.steps.append(_census_step(field, spec.at_t(t_next)))
    trace.completed = True
    return field, trace


def _census_step(field, spec_t):
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
