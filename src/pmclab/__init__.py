"""Solver and qualitative verifier for prescribed-mean-curvature graphs.

Computes finite element solutions of div(grad u / sqrt(1 + |grad u|^2)) = H
with Neumann or Robin boundary data on smooth bounded convex domains, locates
and classifies the critical points of the solutions, and checks a battery of
qualitative properties (uniqueness of the minimum, non-degeneracy, sign
conditions, nodal-set geometry, homotopy stability, and the axisymmetric
higher-dimensional case) as quantitative pass/fail tests.
"""
