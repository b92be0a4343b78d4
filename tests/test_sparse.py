"""pmclab.sparse against scipy.sparse: the CSR products, the CSC arrays
handed to SuperLU and the LU itself must be SciPy's, bit for bit, on the
Jacobians of the bench workloads, whether or not scipy.sparse.linalg is
also loaded; a missing kernel must fail the import loudly.

The module imports no scipy at its top, so a fresh process can import it,
load pmclab's kernels first, and only then bring scipy.sparse.linalg in.
"""

import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmclab.sparse
from pmclab.assembly import Discretization, ProblemSpec, ScalarField, jacobian
from pmclab.geometry import make_disk, make_ellipse, triangulate
from pmclab.solver import _DIAG_PIVOT_THRESH
from pmclab.sparse import Csr

# the options of solver._factor, and SciPy's defaults, under which SuperLU
# grows its L and U arrays past their nnz on these matrices
LU_OPTIONS = (dict(permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                   options={"SymmetricMode": True}), {})


def bench_jacobian(kind):
    """The Jacobian of the bench workload's problem at its mesh size, at a
    rough field: the Robin ellipse (h 0.02) or the bordered Neumann disk
    (h 0.025)."""
    if kind == "robin":
        mesh = triangulate(make_ellipse(1.3, 0.7), 0.02)
        spec = ProblemSpec.robin(0.5, 1.0)
    else:
        mesh = triangulate(make_disk(1.0), 0.025)
        spec = ProblemSpec.neumann(0.6, 0.5)
    values = (0.3 * np.sum(mesh.vertices ** 2, axis=1) + 0.05
              * np.random.default_rng(1).standard_normal(mesh.n_vertices))
    return jacobian(ScalarField(mesh, values), spec, Discretization(mesh))


class _RecordingSuperLU:
    """Stands in for pmclab's SuperLU kernel and keeps the CSC arrays each
    factorization hands to ``gstrf``."""

    def __init__(self, kernel):
        self.kernel, self.csc = kernel, []

    def gstrf(self, n, nnz, data, indices, indptr, **kwargs):
        self.csc.append((data.copy(), indices.copy(), indptr.copy()))
        return self.kernel.gstrf(n, nnz, data, indices, indptr, **kwargs)


def pmclab_results(J):
    """J x, J X, and the CSC arrays, fill and solve of the LUs of the
    float32 J by pmclab.sparse, under each of ``LU_OPTIONS``."""
    rng = np.random.default_rng(2)
    x, X = (rng.standard_normal(J.shape[1]),
            rng.standard_normal((J.shape[1], 2)))
    J32 = Csr(J.data.astype(np.float32), J.indices, J.indptr, J.shape)
    kernel = pmclab.sparse._superlu
    pmclab.sparse._superlu = recorder = _RecordingSuperLU(kernel)
    try:
        lus = [pmclab.sparse.splu(J32, **opts) for opts in LU_OPTIONS]
    finally:
        pmclab.sparse._superlu = kernel
    b = rng.standard_normal(J.shape[0]).astype(np.float32)
    return {"x": x, "X": X, "b": b, "Jx": J @ x, "JX": J @ X,
            "csc": recorder.csc,
            "fill": [lu.L.nnz + lu.U.nnz for lu in lus],
            "solve": np.array([lu.solve(b) for lu in lus])}


def check_against_scipy(J, ours):
    """Each result of :func:`pmclab_results` equals SciPy's, bit for bit."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    A = sp.csr_matrix((J.data, J.indices, J.indptr), shape=J.shape)
    for key, ref in (("Jx", A @ ours["x"]), ("JX", A @ ours["X"])):
        assert ours[key].dtype == ref.dtype and ours[key].shape == ref.shape
        assert np.array_equal(ours[key], ref), key
    C = sp.csr_matrix((J.data.astype(np.float32), J.indices, J.indptr),
                      shape=J.shape).tocsc()
    assert len(ours["csc"]) == len(LU_OPTIONS)
    for csc in ours["csc"]:
        for ours_arr, ref in zip(csc, (C.data, C.indices, C.indptr)):
            assert ours_arr.dtype == ref.dtype
            assert np.array_equal(ours_arr, ref)
    lus = [spla.splu(C, **opts) for opts in LU_OPTIONS]
    assert ours["fill"] == [lu.L.nnz + lu.U.nnz for lu in lus]
    ref = np.array([lu.solve(ours["b"]) for lu in lus])
    assert ours["solve"].dtype == ref.dtype
    assert np.array_equal(ours["solve"], ref)


@pytest.fixture(scope="module", params=["robin", "neumann"])
def bench_case(request):
    J = bench_jacobian(request.param)
    return J, pmclab_results(J)


def test_kernels_match_scipy(bench_case):
    J, ours = bench_case
    assert isinstance(J, Csr)
    check_against_scipy(J, ours)
    # the same products and factor once scipy.sparse.linalg is loaded
    again = pmclab_results(J)
    for key in ("Jx", "JX", "solve"):
        assert np.array_equal(again[key], ours[key])
    assert again["fill"] == ours["fill"]


def test_kernels_match_scipy_loaded_afterwards():
    """In a fresh process pmclab loads its kernels and factors before any
    scipy module exists; after scipy.sparse.linalg comes in, both copies
    still agree."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import test_sparse as t\n"
        "cases = [t.bench_jacobian(kind) for kind in ('robin', 'neumann')]\n"
        "results = [t.pmclab_results(J) for J in cases]\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.')\n"
        "               for m in sys.modules)\n"
        "for J, before in zip(cases, results):\n"
        "    t.check_against_scipy(J, before)\n"
        "    after = t.pmclab_results(J)\n"
        "    assert 'scipy.sparse.linalg' in sys.modules\n"
        "    assert all(np.array_equal(after[k], before[k])\n"
        "               for k in ('Jx', 'JX', 'solve', 'fill'))\n"
        "print('ok')\n")
    out = _run(script, Path(__file__).resolve().parent)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


def _run(script, *path):
    """``python -c script`` with ``path`` and then pmclab's sources first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (*path, Path(pmclab.sparse.__file__).parents[1],
                         env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_missing_kernel_fails_the_import(tmp_path):
    version = importlib.metadata.version("scipy")
    with pytest.raises(ImportError) as err:
        pmclab.sparse._load_kernels(str(tmp_path))
    message = str(err.value)
    assert "_sparsetools" in message and str(tmp_path) in message
    assert f"scipy {version}" in message
    # with the CSR kernel in place, the missing SuperLU is named
    root = tmp_path / "csr_only"
    (root / "sparse").mkdir(parents=True)
    so = Path(pmclab.sparse._sparsetools.__file__)
    (root / "sparse" / so.name).symlink_to(so)
    with pytest.raises(ImportError, match="_superlu") as err:
        pmclab.sparse._load_kernels(str(root))
    assert str(root / "sparse" / "linalg" / "_dsolve") in str(err.value)


def test_import_fails_without_the_kernels(tmp_path):
    # a scipy package that holds no kernels shadows the installed one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = _run("import pmclab.cli", tmp_path)
    assert out.returncode != 0
    assert ("ImportError: pmclab needs SciPy's compiled kernel _sparsetools, "
            f"which is not in {tmp_path / 'scipy' / 'sparse'}") in out.stderr
