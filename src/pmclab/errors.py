"""Exception types shared across the package."""


class PmclabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(PmclabError):
    """An argument violates a documented precondition."""


class MeshQualityError(PmclabError):
    """Triangulation could not reach the required element quality."""


class InfeasibleProblemError(PmclabError):
    """Boundary data fails the divergence-theorem necessary condition."""

    def __init__(self, message, feasibility=None):
        super().__init__(message)
        self.feasibility = feasibility


class SolverFailure(PmclabError):
    """Newton iteration did not converge; carries the partial results."""

    def __init__(self, message, report=None, trace=None):
        super().__init__(message)
        self.report = report
        self.trace = trace


class LinearSolveFailure(PmclabError):
    """Sparse linear solve broke down (singular or structurally bad system)."""


class OutOfDomainError(PmclabError):
    """Analytic comparison function evaluated outside its domain of definition."""


class IllConditionedLoopError(PmclabError):
    """Winding-number loop leaves the mesh or passes too close to a zero of
    the field."""


class UnderflowFitError(PmclabError):
    """Field magnitude in the fit annulus is at rounding level; no slope fit possible."""


class NoAxisCriticalError(PmclabError):
    """No critical point found on the symmetry axis of a meridian solution."""


class ConfigError(PmclabError):
    """Configuration document rejected; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
