"""CSR matrices and their sparse LU on two compiled SciPy kernels.

The CSR products of ``scipy/sparse/_sparsetools`` and SuperLU (X. S. Li,
ACM TOMS 31, 2005) in ``scipy/sparse/linalg/_dsolve/_superlu`` are loaded
by file as ``pmclab._sparsetools`` and ``pmclab._superlu``, so a run skips
importing ``scipy.sparse`` and ``scipy.sparse.linalg`` (about 0.2 s and
24 MB), and a later import of those loads its own copies.  This is the
only module that knows SciPy's file layout.
"""

import importlib.machinery as machinery
import importlib.util
import os

import numpy as np


def _load_kernels(root):
    """The two kernel modules under SciPy's package directory ``root``."""
    modules = []
    for name, where in (("_sparsetools", ("sparse",)),
                        ("_superlu", ("sparse", "linalg", "_dsolve"))):
        where = os.path.join(root, *where)
        spec = machinery.PathFinder.find_spec(name, [where])
        if not isinstance(getattr(spec, "loader", None),
                          machinery.ExtensionFileLoader):
            from importlib.metadata import version
            raise ImportError(f"pmclab needs SciPy's compiled kernel {name}, "
                              f"which is not in {where} (scipy "
                              f"{version('scipy')})", name=name)
        loader = machinery.ExtensionFileLoader(f"pmclab.{name}", spec.origin)
        modules.append(importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader)))
        loader.exec_module(modules[-1])
    return modules


_scipy = importlib.util.find_spec("scipy")      # runs no scipy code
if _scipy is None:
    raise ImportError("pmclab needs SciPy, which is not installed")
_sparsetools, _superlu = _load_kernels(_scipy.submodule_search_locations[0])


class Csr:
    """A matrix of CSR arrays: row i holds ``data[indptr[i]:indptr[i + 1]]``
    at those ``indices``; ``nnz`` is ``indptr[-1]``, as in SciPy."""

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)
        self.nnz = int(indptr[-1])

    def __matmul__(self, x):
        """A x for x of shape (N,) or (N, k), by scipy.sparse's kernels."""
        x = np.asarray(x)
        (m, n), k = self.shape, x.shape[1:]
        if x.shape[:1] != (n,) or len(k) > 1:
            raise ValueError(f"matmul of {self.shape} and {x.shape}")
        out = np.zeros((m, *k), dtype=np.result_type(self.data, x))
        csr = (self.indptr, self.indices, self.data)
        if k:
            _sparsetools.csr_matvecs(m, n, k[0], *csr, x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvec(m, n, *csr, x, out)
        return out


def splu(A, permc_spec=None, diag_pivot_thresh=None, options=None):
    """SciPy's ``SuperLU`` of the square CSR matrix ``A`` (no duplicate
    entries), turned into CSC by ``csr_tocsc``, with the option dict
    ``scipy.sparse.linalg.splu`` builds (short of its special case for the
    NATURAL ordering).  Its ``L`` and ``U`` are :class:`Csr` on the CSC
    arrays of the factors (so they read as the transposes), with the
    factors' nnz."""
    (n, m), nnz = A.shape, int(A.indptr[-1])
    if m != n:
        raise ValueError("can only factor square matrices")
    data, indices = np.empty(nnz, A.data.dtype), np.empty(nnz, np.intc)
    indptr = np.empty(n + 1, np.intc)
    _sparsetools.csr_tocsc(n, n, A.indptr.astype(np.intc, copy=False),
                           A.indices.astype(np.intc, copy=False), A.data,
                           indptr, indices, data)
    opts = {"DiagPivotThresh": diag_pivot_thresh, "ColPerm": permc_spec,
            "PanelSize": None, "Relax": None, **(options or {})}
    return _superlu.gstrf(n, nnz, data, indices, indptr, ilu=False,
                          options=opts,
                          csc_construct_func=lambda a, shape: Csr(*a, shape))
