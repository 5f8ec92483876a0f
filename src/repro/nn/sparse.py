"""Sparse spmm engine for the DGCNN's normalized graph operators.

The training/inference hot path multiplies one block-diagonal
``D^-1 (A + I)`` operator per batch against dense node matrices, four
layers forward and four transposed products backward, every step.  This
module owns that product through :class:`SparseOp`, the operator wrapper
the batcher hands to the network.  It caches the scipy view so format
conversion happens **once per batch**, never once per layer per step,
and its :meth:`~SparseOp.matmul` / :meth:`~SparseOp.matmul_t` kernels
accept preallocated outputs so steady-state training allocates nothing.

Both products call scipy's C CSR kernel directly through
``scipy.sparse._sparsetools`` with a preallocated output, skipping the
``__matmul__`` dispatch/validation layer.  The transposed product runs
the CSC kernel **on the same CSR arrays** (CSR of ``A`` is CSC of
``A^T``), so no transpose is ever materialized.  Results are
**bit-identical** to ``csr @ dense`` / ``csr.T @ dense``; the parity
suite in ``tests/nn/test_sparse.py`` enforces this.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernels; private but stable since 2008.  Guarded anyway.
    from scipy.sparse import _sparsetools

    _HAVE_SPARSETOOLS = True
except ImportError:  # pragma: no cover - scipy always ships it today
    _sparsetools = None
    _HAVE_SPARSETOOLS = False

__all__ = ["SparseOp", "as_sparse_op", "csr_from_parts"]


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
    (monotone indptr, in-range indices, matching lengths).
    """
    matrix = sp.csr_matrix.__new__(sp.csr_matrix)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix._shape = shape
    return matrix


# ------------------------------------------------------------- the operator
class SparseOp:
    """A sparse operator with cached layouts and zero-overhead kernels.

    Wraps one ``D^-1 (A + I)`` (or any CSR) matrix.  The scipy view is
    built at most once and cached, so the four graph-convolution layers
    of a forward/backward pass share one conversion instead of
    re-deriving formats per call.
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

    @classmethod
    def from_parts(
        cls,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> "SparseOp":
        return cls(data, indices, indptr, shape)

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
            _HAVE_SPARSETOOLS
            and dense.flags.c_contiguous
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
