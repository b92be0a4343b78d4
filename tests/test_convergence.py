"""Mesh-convergence rates against the radial closed forms of
``tests/oracles.py``: the vertex max-norm error on the disk (planar) and the
ball (meridian, n = 3...6) at h = 0.1, 0.05, 0.025."""

import math

import numpy as np
import pytest

from pmclab.assembly import Discretization, ProblemSpec
from pmclab.axisym import meridian_mesh
from pmclab.geometry import triangulate
from pmclab.solver import newton_solve

from oracles import RadialSolution

LADDER = (0.1, 0.05, 0.025)
MIN_ORDER = 1.7


def vertex_errors(disk, spec, mesher, disc):
    errors = []
    for h in LADDER:
        mesh = mesher(disk, h)
        field, _ = newton_solve(disc(mesh), spec)
        exact = RadialSolution(spec).at_points(mesh.vertices)
        values = field.values
        if spec.bc == "neumann":
            exact, values = exact - exact.mean(), values - values.mean()
        errors.append(float(np.abs(values - exact).max()))
    return errors


@pytest.mark.parametrize("spec", [ProblemSpec(H=0.8, bc="robin", alpha=1.0),
                                  ProblemSpec(H=0.6, bc="neumann", c=0.5)],
                         ids=["robin", "neumann"])
def test_planar_disk_order_per_halving(disk, spec):
    err = vertex_errors(disk, spec, triangulate, Discretization)
    orders = [math.log2(err[i] / err[i + 1]) for i in range(len(err) - 1)]
    assert min(orders) >= MIN_ORDER, (err, orders)


@pytest.mark.parametrize("n_dim", [
    3,
    *(pytest.param(n, marks=pytest.mark.xfail(
        strict=True, reason="the error at the poles grows from h 0.1 to "
        "0.05 for n >= 4: the pole quadrature (ROADMAP item 1(a))"))
      for n in (4, 5, 6))])
def test_meridian_ball_no_growth_and_order(disk, n_dim):
    spec = ProblemSpec(H=0.8, bc="robin", alpha=1.0, n_dim=n_dim)
    err = vertex_errors(disk, spec, meridian_mesh,
                        lambda mesh: Discretization(mesh, n_dim - 2))
    assert all(b <= a for a, b in zip(err, err[1:])), err
    order = math.log2(err[0] / err[-1]) / (len(err) - 1)
    assert order >= MIN_ORDER, (err, order)
