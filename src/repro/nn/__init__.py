"""From-scratch numpy autograd substrate (PyTorch substitute).

Runtime dtype policy: float32 by default, switchable to float64 via the
``REPRO_DTYPE`` environment variable or :func:`set_default_dtype` /
:func:`dtype_scope` (gradient checks need float64).  Inference paths run
under :func:`no_grad` to skip tape recording entirely.

Sparse kernel policy: the graph convolutions run on scipy's C CSR
kernels through :class:`~repro.nn.sparse.SparseOp`, bit-identical to
``csr @ dense``.
"""

from repro.nn.curvature import CurvatureCollector, collecting, record, tap_active
from repro.nn.functional import (
    conv1d,
    dropout,
    gather_rows,
    graph_conv,
    linear,
    log_softmax,
    max_pool1d,
    segment_max,
    segment_mean,
    segment_sum,
    softmax,
    softmax_cross_entropy,
    gather_stack,
    sortpool_conv,
    stack_columns,
)
from repro.nn.layers import Conv1d, Dropout, GraphConv, Linear, Module
from repro.nn.optim import KFAC, SGD, Adam
from repro.nn.sparse import SparseOp, as_sparse_op, csr_from_parts
from repro.nn.tensor import (
    Tensor,
    Workspace,
    concat,
    default_dtype,
    dtype_scope,
    is_grad_enabled,
    no_grad,
    relu,
    set_default_dtype,
    sigmoid,
    spmm,
    tanh,
)

__all__ = [
    "Tensor",
    "Workspace",
    "spmm",
    "concat",
    "relu",
    "tanh",
    "sigmoid",
    "default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "no_grad",
    "is_grad_enabled",
    "conv1d",
    "max_pool1d",
    "dropout",
    "graph_conv",
    "gather_stack",
    "sortpool_conv",
    "stack_columns",
    "gather_rows",
    "SparseOp",
    "as_sparse_op",
    "csr_from_parts",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "linear",
    "Module",
    "Linear",
    "Conv1d",
    "Dropout",
    "GraphConv",
    "Adam",
    "KFAC",
    "SGD",
    "CurvatureCollector",
    "collecting",
    "record",
    "tap_active",
]
