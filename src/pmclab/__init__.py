"""Solver and qualitative verifier for prescribed-mean-curvature graphs.

Computes finite element solutions of div(grad u / sqrt(1 + |grad u|^2)) = H
with Neumann or Robin boundary data on smooth bounded convex domains, locates
and classifies the critical points of the solutions, and checks a battery of
qualitative properties (uniqueness of the minimum, non-degeneracy, sign
conditions, nodal-set geometry, homotopy stability, and the axisymmetric
higher-dimensional case) as quantitative pass/fail tests.
"""

from .geometry import (ConvexDomain, TriMesh, make_disk, make_ellipse,
                       make_rounded_polygon, triangulate)
from .assembly import (Discretization, ProblemSpec, ScalarField,
                       boundary_flux, jacobian, neumann_gate, residual)
from .solver import (HomotopyTrace, SolveReport, homotopy_solve, linear_solve,
                     newton_solve)
from .critical import (CriticalPointRecord, classify, find_critical_points,
                       gradient_index, interior_max_scan, recover_gradient)
from .nodal import (CylinderSolution, LeadingOrderFit, NodalArcSet,
                    QuadraticModel, difference_field, leading_order_fit,
                    sector_count, trace_nodal_set)
from .axisym import axis_hessian, check_monotone, meridian_mesh
from .verify import VerificationReport, run_suite
from .config import RunConfig, parse_config

__all__ = [
    "ConvexDomain", "TriMesh", "make_disk", "make_ellipse",
    "make_rounded_polygon", "triangulate",
    "Discretization", "ProblemSpec", "ScalarField", "boundary_flux", "jacobian",
    "neumann_gate", "residual",
    "HomotopyTrace", "SolveReport", "homotopy_solve", "linear_solve",
    "newton_solve",
    "CriticalPointRecord", "classify", "find_critical_points",
    "gradient_index", "interior_max_scan", "recover_gradient",
    "CylinderSolution", "LeadingOrderFit", "NodalArcSet", "QuadraticModel",
    "difference_field", "leading_order_fit", "sector_count", "trace_nodal_set",
    "axis_hessian", "check_monotone", "meridian_mesh",
    "VerificationReport", "run_suite",
    "RunConfig", "parse_config",
]
