import warnings

import numpy as np
import pytest

from pmclab.assembly import Discretization, ProblemSpec
from pmclab.axisym import MeridianProblem, meridian_mesh, outer_flux_edges
from pmclab.geometry import make_disk, make_ellipse, triangulate
from pmclab.solver import homotopy_solve, newton_solve

warnings.filterwarnings("ignore", message="rounded polygon")


@pytest.fixture(scope="session")
def disk():
    return make_disk(1.0)


@pytest.fixture(scope="session")
def ellipse():
    return make_ellipse(1.3, 0.7)


@pytest.fixture(scope="session")
def disk_mesh_02(disk):
    return triangulate(disk, 0.2)


@pytest.fixture(scope="session")
def disk_mesh_01(disk):
    return triangulate(disk, 0.1)


@pytest.fixture(scope="session")
def disk_mesh_005(disk):
    return triangulate(disk, 0.05)


@pytest.fixture(scope="session")
def ellipse_mesh_005(ellipse):
    return triangulate(ellipse, 0.05)


@pytest.fixture(scope="session")
def robin_spec():
    return ProblemSpec.robin(0.8, 1.0)


@pytest.fixture(scope="session")
def neumann_spec():
    return ProblemSpec.neumann(0.6, 0.5)


@pytest.fixture(scope="session")
def robin_disk_01(disk_mesh_01, robin_spec):
    return newton_solve(Discretization(disk_mesh_01), robin_spec)


@pytest.fixture(scope="session")
def robin_disk_005(disk_mesh_005, robin_spec):
    return newton_solve(Discretization(disk_mesh_005), robin_spec)


@pytest.fixture(scope="session")
def neumann_disk_01(disk_mesh_01, neumann_spec):
    return newton_solve(Discretization(disk_mesh_01), neumann_spec)


@pytest.fixture(scope="session")
def neumann_disk_005(disk_mesh_005, neumann_spec):
    return newton_solve(Discretization(disk_mesh_005), neumann_spec)


@pytest.fixture(scope="session")
def ellipse_robin_spec():
    return ProblemSpec.robin(0.5, 1.0)


@pytest.fixture(scope="session")
def ellipse_homotopy(ellipse_mesh_005, ellipse_robin_spec):
    schedule = [round(0.1 * k, 10) for k in range(11)]
    return homotopy_solve(Discretization(ellipse_mesh_005), ellipse_robin_spec,
                          schedule)


@pytest.fixture(scope="session")
def ball_spec():
    return ProblemSpec.robin(0.8, 1.0, n_dim=3)


@pytest.fixture(scope="session")
def ball_problem():
    return MeridianProblem(1.0, 1.0)


@pytest.fixture(scope="session")
def ball_mesh_005(ball_problem):
    return meridian_mesh(ball_problem, 0.05)


@pytest.fixture(scope="session")
def ball_robin_005(ball_spec, ball_mesh_005):
    disc = Discretization(ball_mesh_005, ball_spec.n_dim - 2,
                          outer_flux_edges(ball_mesh_005))
    return newton_solve(disc, ball_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
