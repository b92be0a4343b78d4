"""Dilation, an exact symmetry of the equation (ROADMAP item 10).

The data (lambda Omega, H / lambda, alpha / lambda, c) have the solution
lambda u(x / lambda).  The pipeline keeps the symmetry: meshed at lambda h,
every golden config gives the same exit code, status and verdict, the same
cell array, vertices exactly lambda times the original for a power of two,
the field lambda u, critical points at lambda times their locations and
Hessians at 1 / lambda.  No oracle is needed.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from pmclab import cli, pipeline
from pmclab.config import parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = ("ball3d_robin", "compare_robin_disk", "neumann_disk",
          "neumann_infeasible", "robin_disk", "robin_ellipse")


def dilated(doc, lam):
    doc = json.loads(json.dumps(doc))
    for key, value in doc["domain"].items():
        if key != "type":
            doc["domain"][key] = lam * value
    problem = doc["problem"]
    problem["H"] /= lam
    if "alpha" in problem:
        problem["alpha"] /= lam
    doc["mesh"]["h_target"] *= lam
    return doc


@dataclass
class Outcome:
    code: int
    status: str
    verdict: str | None
    cells: np.ndarray
    vertices: np.ndarray
    values: np.ndarray | None      # None when no solve ran
    critical_points: list


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """``outcome(name, lam)``: the CLI run of golden config ``name`` dilated
    by ``lam``, with the mesh and field it set up and solved."""
    cache = {}

    def run(name, lam):
        if (name, lam) not in cache:
            doc = json.loads((CONFIGS / f"{name}.json").read_text())
            setup_, solve_, seen = pipeline.setup, pipeline.solve, {}

            def setup(*args):
                seen["run"] = setup_(*args)
                return seen["run"]

            def solve(*args):
                result = solve_(*args)
                seen["values"] = result[0].values
                return result

            out = tmp_path_factory.mktemp(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "setup", setup)
                mp.setattr(pipeline, "solve", solve)
                code = cli.run(parse_config(dilated(doc, lam)), out)
            report = json.loads((out / "report.json").read_text())
            mesh = seen["run"].mesh
            cache[name, lam] = Outcome(
                code, report["status"],
                (report["verification"] or {}).get("verdict"), mesh.cells,
                mesh.vertices, seen.get("values"), report["critical_points"])
        return cache[name, lam]
    return run


def _xfail(name, lam, reason, tag=None):
    return pytest.param(name, lam, id=f"{name}-x{tag or format(lam, 'g')}",
                        marks=pytest.mark.xfail(strict=True, reason=reason))


_STALLED = ("the residual scales as lambda^(n-1) against an absolute Newton "
            "tolerance: exit 3, Newton line search stalled")
# at 2^-10 the absolute Newton tolerance stops each solve early, this far
# off in max|u|
_STOPPED_EARLY = {"ball3d_robin": "3.0e-2", "compare_robin_disk": "4.3e-7",
                  "robin_disk": "4.3e-7", "robin_ellipse": "2.2e-8",
                  "neumann_disk": "2.2e-9"}


@pytest.mark.parametrize("name, lam", [
    *[pytest.param(name, 2.0, id=f"{name}-x2") for name in GOLDEN],
    *[pytest.param(name, 0.5, id=f"{name}-x0.5")
      for name in ("ball3d_robin", "compare_robin_disk",
                   "neumann_infeasible", "robin_disk")],
    _xfail("neumann_disk", 0.5,
           "the absolute Newton tolerance stops one iteration early: the "
           "field is 2.2e-9 of max|u| off"),
    _xfail("robin_ellipse", 0.5,
           "the absolute Newton tolerance stops the continuation one "
           "iteration early: the field is 2.2e-8 of max|u| off"),
    _xfail("ball3d_robin", 1000.0, _STALLED),
    *[pytest.param(name, 2.0 ** 10, id=f"{name}-x2^10")
      for name in GOLDEN if name != "ball3d_robin"],
    _xfail("ball3d_robin", 2.0 ** 10, _STALLED, tag="2^10"),
    pytest.param("neumann_infeasible", 2.0 ** -10,
                 id="neumann_infeasible-x2^-10"),
    *[_xfail(name, 2.0 ** -10,
             "the absolute Newton tolerance stops the solve early: the field "
             f"is {off} of max|u| off", tag="2^-10")
      for name, off in _STOPPED_EARLY.items()]])
def test_dilation(outcome, name, lam):
    base, run = outcome(name, 1.0), outcome(name, lam)
    assert (run.code, run.status, run.verdict) == \
        (base.code, base.status, base.verdict)
    assert np.array_equal(run.cells, base.cells)
    assert np.array_equal(run.vertices, lam * base.vertices)
    assert (run.values is None) == (base.values is None)
    if base.values is not None:
        assert np.abs(run.values - lam * base.values).max() \
            <= 1e-14 * lam * np.abs(base.values).max()
    assert len(run.critical_points) == len(base.critical_points)
    length = lam * np.abs(base.vertices).max()
    for p, q in zip(base.critical_points, run.critical_points):
        assert np.abs(np.subtract(q["location"], lam * np.array(
            p["location"]))).max() <= 1e-12 * length
        hessian = np.array(p["hessian"]) / lam
        assert np.abs(q["hessian"] - hessian).max() \
            <= 1e-12 * np.abs(hessian).max()
