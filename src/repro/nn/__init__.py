"""From-scratch numpy autograd for the one network MuxLink trains: DGCNN.

What is left is what :class:`repro.gnn.DGCNN` and its trainer run:

* :mod:`~repro.nn.tensor` — :class:`Tensor` (the tape, plus ``reshape``,
  ``relu`` and ``exp``), :func:`no_grad`, the :class:`Workspace` scratch
  pool and the runtime dtype: float32 by default, switchable to float64
  via the ``REPRO_DTYPE`` environment variable or
  :func:`set_default_dtype` / :func:`dtype_scope` (gradient checks need
  float64);
* :mod:`~repro.nn.functional` — the fused kernels: graph convolution,
  SortPooling fused with the first 1-D convolution, the second 1-D
  convolution, the 2/2 max pool, the dense layer, dropout, softmax and
  the cross-entropy loss;
* :mod:`~repro.nn.layers` — :class:`Module` and the :class:`GraphConv`,
  :class:`Conv1d`, :class:`Linear` and :class:`Dropout` layers;
* :mod:`~repro.nn.optim` — :class:`Adam`;
* :mod:`~repro.nn.sparse` — :class:`SparseOp`: the graph convolutions run
  on scipy's C CSR kernels, bit-identical to ``csr @ dense``.

``tests/test_import_graph.py`` keeps this package's exports to names the
rest of ``repro`` imports (or the benchmark patches).
"""

from repro.nn.functional import (
    max_pool1d,
    softmax,
    softmax_cross_entropy,
    sortpool_conv,
)
from repro.nn.layers import Conv1d, Dropout, GraphConv, Linear, Module
from repro.nn.optim import Adam
from repro.nn.sparse import SparseOp
from repro.nn.tensor import (
    Tensor,
    Workspace,
    default_dtype,
    dtype_scope,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "Workspace",
    "default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "no_grad",
    "max_pool1d",
    "sortpool_conv",
    "softmax",
    "softmax_cross_entropy",
    "SparseOp",
    "Module",
    "Linear",
    "Conv1d",
    "Dropout",
    "GraphConv",
    "Adam",
]
