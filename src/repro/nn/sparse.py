"""Sparse spmm engine for the DGCNN's normalized graph operators.

The training/inference hot path multiplies one block-diagonal
``D^-1 (A + I)`` operator per batch against dense node matrices, four
layers forward and four transposed products backward, every step.  This
module owns that product through :class:`SparseOp`, the operator wrapper
the batcher hands to the network.  Its :meth:`~SparseOp.matmul` /
:meth:`~SparseOp.matmul_t` kernels run on the raw CSR arrays, so no
format conversion happens per layer per step, and accept preallocated
outputs so steady-state training allocates nothing.

Both products call scipy's C CSR kernel directly through its
``_sparsetools`` extension with a preallocated output, skipping the
``__matmul__`` dispatch/validation layer.  The transposed product runs
the CSC kernel **on the same CSR arrays** (CSR of ``A`` is CSC of
``A^T``), so no transpose is ever materialized.  Results are
**bit-identical** to ``csr @ dense`` / ``csr.T @ dense``; the parity
suite in ``tests/nn/test_sparse.py`` enforces this.

The extension is loaded by file path (:func:`load_sparsetools`), so the
attack path never runs ``scipy/sparse/__init__.py`` and its array-API
layer.  ``scipy.sparse`` itself is imported only when a scipy view is
asked for (:attr:`SparseOp.csr`, :func:`csr_from_parts`) or a product
falls off the fast path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

__all__ = ["SparseOp", "as_sparse_op", "csr_from_parts", "load_sparsetools"]


def load_sparsetools():
    """scipy's ``_sparsetools`` C extension, without importing ``scipy.sparse``.

    The extension is self-contained (it needs only numpy's C API), so it
    is loaded straight from the installed ``scipy`` package under the
    private name ``repro.nn._sparsetools``.  When the file is not there
    or will not load, this falls back to the ordinary import.
    """
    spec = importlib.util.find_spec("scipy")
    for location in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "sparse", "_sparsetools" + suffix)
            if not os.path.isfile(path):
                continue
            try:
                loader = importlib.machinery.ExtensionFileLoader(
                    "repro.nn._sparsetools", path
                )
                return loader.create_module(
                    importlib.util.spec_from_loader(loader.name, loader)
                )
            except ImportError:
                break
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = load_sparsetools()


def csr_from_parts(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """A ``csr_matrix`` over *data*/*indices*/*indptr* without validation.

    ``csr_matrix.__init__`` runs ``check_format`` plus index-dtype scans —
    ~50x the cost of the construction itself — on arrays the batcher just
    built and knows are canonical.  Callers must guarantee CSR invariants
    (monotone indptr, in-range indices, matching lengths).  Imports
    ``scipy.sparse`` on first call.
    """
    import scipy.sparse as sp

    matrix = sp.csr_matrix.__new__(sp.csr_matrix)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix._shape = shape
    return matrix


# ------------------------------------------------------------- the operator
class SparseOp:
    """A sparse operator with cached layouts and zero-overhead kernels.

    Wraps the CSR arrays of one ``D^-1 (A + I)`` (or any CSR) matrix.
    The kernels run on those arrays directly; the scipy view
    (:attr:`csr`) is built only on request, at most once.
    """

    __slots__ = ("shape", "data", "indices", "indptr", "_csr")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
        csr: sp.csr_matrix | None = None,
    ):
        self.shape = shape
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self._csr = csr

    @classmethod
    def from_csr(cls, matrix: sp.spmatrix) -> "SparseOp":
        matrix = matrix.tocsr()
        return cls(
            matrix.data, matrix.indices, matrix.indptr, matrix.shape, matrix
        )

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def csr(self) -> sp.csr_matrix:
        """The scipy view of this operator (built lazily, cached)."""
        if self._csr is None:
            self._csr = csr_from_parts(
                self.data, self.indices, self.indptr, self.shape
            )
        return self._csr

    # ------------------------------------------------------------- kernels
    def _fast_path(self, dense: np.ndarray, out: np.ndarray | None) -> bool:
        return (
            dense.flags.c_contiguous
            and dense.dtype == self.data.dtype
            and (out is None or out.flags.c_contiguous)
        )

    def matmul(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ dense`` into *out* (allocated when ``None``).

        Bit-identical to ``self.csr @ dense``.
        """
        if not self._fast_path(dense, out):
            result = self.csr @ dense
            if out is None:
                return result
            out[...] = result
            return out
        n_rows, n_cols = self.shape
        n_vecs = dense.shape[1]
        if out is None:
            out = np.zeros((n_rows, n_vecs), dtype=dense.dtype)
        else:
            out.fill(0.0)
        # The same C kernel scipy's __matmul__ dispatches to, minus the
        # dispatch: Y += A @ X over a caller-owned Y.
        _sparsetools.csr_matvecs(
            n_rows, n_cols, n_vecs,
            self.indptr, self.indices, self.data,
            dense.reshape(-1), out.reshape(-1),
        )
        return out

    def matmul_t(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A.T @ dense`` into *out* — no transpose is ever materialized.

        The CSR arrays of ``A`` *are* the CSC arrays of ``A^T``, so this
        runs the CSC kernel on the original arrays; bit-identical to
        ``self.csr.T @ dense``.
        """
        if not self._fast_path(dense, out):
            result = self.csr.T @ dense
            if out is None:
                return result
            out[...] = result
            return out
        n_rows, n_cols = self.shape[1], self.shape[0]
        n_vecs = dense.shape[1]
        if out is None:
            out = np.zeros((n_rows, n_vecs), dtype=dense.dtype)
        else:
            out.fill(0.0)
        _sparsetools.csc_matvecs(
            n_rows, n_cols, n_vecs,
            self.indptr, self.indices, self.data,
            dense.reshape(-1), out.reshape(-1),
        )
        return out


def as_sparse_op(operator) -> SparseOp:
    """Coerce a scipy matrix (or pass through a :class:`SparseOp`)."""
    if isinstance(operator, SparseOp):
        return operator
    return SparseOp.from_csr(operator)
