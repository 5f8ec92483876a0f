"""Variable-size graph batching for the DGCNN.

A minibatch of enclosing subgraphs is assembled into one block-diagonal
sparse operator ``D^-1 (A + I)`` plus a stacked node-feature matrix, so the
graph convolutions of the whole batch run as a single sparse-dense product.

Every operator is built by :func:`normalized_blocks`, which normalizes all
the graphs of a list in one vectorized array pass over their concatenated,
offset edge arrays.  That work is paid **once per split**:

* :class:`BatchCache` prebuilds a fixed partition of a split (used for
  validation and scoring, whose composition never changes), and
* :class:`BatchAssembler` builds every example's normalized operator in
  one :func:`normalized_blocks` pass and keeps per-example views of it
  plus the feature columns, then assembles *any* shuffled index order into
  block-diagonal :class:`GraphBatch` es by pure array stitching — the
  per-epoch cost of a shuffling training loop drops to ``concatenate``
  calls, bit-identical to rebuilding from scratch.

Node features arrive either as dense float rows or **index-coded**: the
paper's node-information matrix is a concatenation of one-hot blocks, so
an example may carry just each row's one-hot column indices (an unsigned
``(n_nodes, c)`` array plus the dense width).  Dense rows are then
written for one batch at a time (:func:`onehot_rows`): a
:class:`BatchAssembler` holds no dense matrix of its split, while a
:class:`BatchCache` keeps every prebuilt batch, dense rows included.

The per-batch SortPooling order bases (``graph_ids`` and
``segment_positions``) are cached lazily on the batch itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.nn import Workspace, default_dtype
from repro.nn.sparse import SparseOp

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

__all__ = [
    "GraphExample",
    "GraphBatch",
    "BatchCache",
    "BatchAssembler",
    "build_batch",
    "normalized_adjacency",
    "normalized_blocks",
    "onehot_rows",
]


@dataclass(frozen=True)
class GraphExample:
    """One subgraph ready for the GNN.

    Attributes:
        n_nodes: node count.
        edges: ``(E, 2)`` int array of undirected edges (one row per pair;
            both directions are added when building the operator).
        features: the node-information matrix, either dense —
            ``(n_nodes, d)`` floats — or index-coded — an ``(n_nodes, c)``
            *unsigned* integer array of each row's one-hot columns, the
            dense row being ``sum_j onehot(features[:, j])``.
        label: class label (1 = link, 0 = no link) or -1 when unknown.
        feature_width: the dense width ``d``; required for index-coded
            features, filled in from the shape for dense ones.
    """

    n_nodes: int
    edges: np.ndarray
    features: np.ndarray
    label: int = -1
    feature_width: int | None = None

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.n_nodes:
            raise ValueError(
                f"{self.features.shape[0]} feature rows for {self.n_nodes} nodes"
            )
        if self.edges.size and (
            self.edges.min() < 0 or self.edges.max() >= self.n_nodes
        ):
            raise ValueError("edge endpoint out of range")
        if not self.index_coded:
            if self.feature_width not in (None, self.features.shape[1]):
                raise ValueError(
                    f"feature_width {self.feature_width} for "
                    f"{self.features.shape[1]} dense columns"
                )
            object.__setattr__(self, "feature_width", self.features.shape[1])
        elif self.feature_width is None:
            raise ValueError("index-coded features need a feature_width")

    @property
    def index_coded(self) -> bool:
        """Whether :attr:`features` holds one-hot column indices."""
        return self.features.dtype.kind == "u"


def onehot_rows(cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the dense rows of index-coded *cols* into *out* and return it.

    *out* is a C-contiguous ``(N, width)`` array: it is zero-filled and
    ``out[i, cols[i, j]]`` set to 1 in one flat-index write.
    """
    n, width = out.shape
    out.fill(0)
    out.reshape(-1)[cols.T + np.arange(0, n * width, width)] = 1
    return out


def _feature_layout(examples: Sequence[GraphExample]) -> tuple[int, bool]:
    """The ``(feature_width, index_coded)`` that all *examples* share.

    Index-coded columns are range-checked where they are stacked
    (:func:`_stack_cols`), in one pass per split or batch.
    """
    layouts = {(e.feature_width, e.index_coded) for e in examples}
    if len(layouts) > 1:
        raise ValueError(f"inconsistent feature layouts {sorted(layouts)}")
    return layouts.pop() if layouts else (0, False)


def _stack_cols(examples: Sequence[GraphExample], width: int) -> np.ndarray:
    """The index-coded feature columns of *examples*, stacked row-wise."""
    cols = np.concatenate([e.features for e in examples])
    if cols.size and cols.max() >= width:
        raise ValueError(f"feature column out of range for width {width}")
    return cols


def _sorted_unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of *keys* and how often each occurs.

    One explicit sort: ``np.unique`` takes a hash-based path in numpy 2
    that is several times slower on these integer keys.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(np.append(starts, keys.size))


def normalized_blocks(
    sizes: Sequence[int], edges: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(data, indices, indptr)`` of the block-diagonal ``D^-1 (A + I)``.

    Graph ``i`` has ``sizes[i]`` nodes and the undirected edge array
    ``edges[i]`` (``(E, 2)``, or ``(0,)`` when empty); its block sits at
    the prefix-sum node offset.  Every graph is built in one array pass
    over the concatenated, offset edges (paper Eq. 4): duplicate and
    reversed edges collapse to weight 1, a self-loop edge collapses to 1
    *before* ``+ I`` (diagonal weight 2), column indices are sorted within
    each row, and the row normalization runs in float64 (exact degree
    reciprocals) before the cast to the runtime default dtype.  Indices
    and indptr are int64.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    pairs = [np.reshape(e, (-1, 2)) for e in edges]
    stacked = np.concatenate(pairs + [np.empty((0, 2), np.int64)]).astype(
        np.int64, copy=False
    )
    stacked += np.repeat(offsets[:-1], [len(p) for p in pairs])[:, None]
    heads, tails = stacked[:, 0], stacked[:, 1]
    # Row-major keys: sorting them sorts by row, then column.  Edge keys
    # are deduplicated first, so a self-loop edge adds exactly 1 to its
    # diagonal entry and ``+ I`` the other 1.
    edge_keys, _ = _sorted_unique(
        np.concatenate([heads * total + tails, tails * total + heads])
    )
    keys, counts = _sorted_unique(
        np.concatenate([edge_keys, np.arange(total) * (total + 1)])
    )
    rows, indices = np.divmod(keys, total)
    data = counts.astype(np.float64)
    degree = np.bincount(rows, weights=data, minlength=total)
    data /= degree[rows]
    row_nnz = np.bincount(rows, minlength=total)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    return data.astype(default_dtype(), copy=False), indices, indptr


def _spans(bounds: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` pairs of consecutive prefix-sum *bounds*."""
    bounds = bounds.tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def normalized_adjacency(n_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Build ``D^-1 (A + I)`` for one undirected graph (paper Eq. 4).

    The single-graph case of :func:`normalized_blocks`, as a scipy CSR
    matrix in the runtime default dtype (imports ``scipy.sparse``).
    """
    import scipy.sparse as sp

    return sp.csr_matrix(
        normalized_blocks([n_nodes], [edges]), shape=(n_nodes, n_nodes)
    )


@dataclass(frozen=True)
class GraphBatch:
    """A batch of subgraphs fused into block-diagonal form.

    ``graph_ids`` and ``segment_positions`` are the SortPooling order
    bases: they depend only on the batch layout, so they are computed
    lazily once and reused by every forward pass over this batch.

    ``operator`` is the block-diagonal ``D^-1 (A + I)`` as a
    :class:`~repro.nn.sparse.SparseOp`, shared by every forward/backward
    pass over the batch, so format conversions never repeat per layer per
    step.
    """

    operator: SparseOp
    features: np.ndarray
    node_offsets: np.ndarray  # (B + 1,) prefix sums
    labels: np.ndarray  # (B,)
    #: ``(N, c)`` intp one-hot column indices of the batch rows, ascending
    #: within a row, so ``features[i] == sum_j onehot(feature_onehot[i, j])``.
    #: :meth:`BatchAssembler.assemble` sets it for index-coded examples —
    #: the training batches — and the first graph convolution then
    #: replaces its ``H @ W`` GEMM with ``c`` row gathers of ``W``.
    #: :func:`build_batch` leaves it ``None``, so validation and scoring
    #: run the GEMM, as does every batch of dense examples.
    feature_onehot: np.ndarray | None = None

    @property
    def n_graphs(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets[-1])

    def graph_slice(self, index: int) -> slice:
        return slice(self.node_offsets[index], self.node_offsets[index + 1])

    @cached_property
    def graph_ids(self) -> np.ndarray:
        """Owning graph index of every stacked node row, ``(N,)``."""
        return np.repeat(
            np.arange(self.n_graphs), np.diff(self.node_offsets)
        )

    @cached_property
    def segment_positions(self) -> np.ndarray:
        """Rank of each row within its graph's contiguous block, ``(N,)``."""
        return np.arange(self.n_nodes) - self.node_offsets[self.graph_ids]

    @property
    def norm_adj(self) -> sp.csr_matrix:
        """The operator as a scipy CSR matrix (built lazily, cached)."""
        return self.operator.csr


def build_batch(examples: Sequence[GraphExample]) -> GraphBatch:
    """Fuse *examples* into one :class:`GraphBatch`.

    The block-diagonal ``D^-1 (A + I)`` operator comes from one
    :func:`normalized_blocks` pass over all the examples.  Operator
    data and features are stored in the runtime default dtype so forward
    passes never re-cast; index-coded features are written dense for
    this batch only.
    """
    if not examples:
        raise ValueError("cannot batch zero graphs")
    width, index_coded = _feature_layout(examples)
    dtype = default_dtype()
    sizes = np.array([e.n_nodes for e in examples])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.array([e.label for e in examples], dtype=np.int64)
    total = int(offsets[-1])
    if index_coded:
        features = onehot_rows(
            _stack_cols(examples, width), np.empty((total, width), dtype)
        )
    else:
        features = np.vstack([e.features for e in examples]).astype(
            dtype, copy=False
        )
    return GraphBatch(
        operator=SparseOp(
            *normalized_blocks(sizes, [e.edges for e in examples]),
            (total, total),
        ),
        features=features,
        node_offsets=offsets,
        labels=labels,
    )


class BatchAssembler:
    """Per-example batch components built once; batches stitched on demand.

    The normalized operators ``D^-1 (A + I)`` of all examples are built
    exactly once, at construction, in a single :func:`normalized_blocks`
    pass; every example keeps views of its CSR data / block-local indices /
    indptr.  Index-coded features live in one flat column-index arena;
    dense examples are referenced as given.  :meth:`assemble` then fuses
    any index order into a block-diagonal :class:`GraphBatch` with plain
    ``concatenate`` calls and writes that batch's dense feature block —
    no dedup/degree work ever runs again, and the result is bit-identical
    to :func:`build_batch` over the same examples (the block-diagonal
    operator decomposes exactly into per-example blocks).

    This is what lets the trainer keep the paper's example-level shuffle
    (fresh batch composition every epoch) while paying the operator build
    only once per split.
    """

    __slots__ = (
        "dtype", "sizes", "labels", "width",
        "_data", "_indices", "_indptr_tail", "_nnz",
        "_cols", "_dense", "_node_starts", "_scratch",
    )

    def __init__(self, examples: Sequence[GraphExample]):
        self.width, index_coded = _feature_layout(examples)
        self.dtype = default_dtype()
        self.sizes = np.array([e.n_nodes for e in examples], dtype=np.int64)
        self.labels = np.array([e.label for e in examples], dtype=np.int64)
        # Every operator in one vectorized pass; the per-example entries
        # are views into it, with block-local column indices and indptr.
        self._node_starts = np.concatenate(
            [[0], np.cumsum(self.sizes)]
        ).astype(np.int64)
        data, indices, indptr = normalized_blocks(
            self.sizes, [e.edges for e in examples]
        )
        nnz_starts = indptr[self._node_starts]
        self._nnz = np.diff(nnz_starts)
        indices -= np.repeat(self._node_starts[:-1], self._nnz)
        indptr_tail = indptr[1:] - np.repeat(nnz_starts[:-1], self.sizes)
        nnz_spans = _spans(nnz_starts)
        node_spans = _spans(self._node_starts)
        self._data = [data[a:b] for a, b in nnz_spans]
        self._indices = [indices[a:b] for a, b in nnz_spans]
        self._indptr_tail = [indptr_tail[a:b] for a, b in node_spans]
        self._scratch = Workspace()
        # Index-coded features: one flat ``(total_nodes, c)`` column arena,
        # so a shuffled batch's columns are one range gather.  Dense
        # features are concatenated per batch from the examples' own rows.
        self._cols = _stack_cols(examples, self.width) if index_coded else None
        self._dense = (
            None if index_coded else [e.features for e in examples]
        )

    def __len__(self) -> int:
        return len(self._data)

    def assemble(
        self, index_order: Sequence[int], reuse_buffers: bool = False
    ) -> GraphBatch:
        """Fuse the examples selected by *index_order* into one batch.

        The CSR arrays are concatenated once and shifted in bulk (one
        ``np.repeat`` per array instead of a per-example add) and the
        resulting :class:`GraphBatch` carries a
        :class:`~repro.nn.sparse.SparseOp` over them.

        With ``reuse_buffers=True`` the operator/feature arrays live in
        assembler-owned scratch slots recycled call to call: the returned
        batch **aliases** those buffers and is only valid until the next
        reusing ``assemble``.  This is the trainer's step loop contract
        (one batch in flight at a time); callers that retain batches must
        keep the default.
        """
        index_order = np.asarray(index_order, dtype=np.int64)
        if index_order.size == 0:
            raise ValueError("cannot batch zero graphs")
        sizes = self.sizes[index_order]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        nnz = self._nnz[index_order]
        nnz_offsets = np.concatenate([[0], np.cumsum(nnz)])
        total = int(offsets[-1])
        total_nnz = int(nnz_offsets[-1])
        if reuse_buffers:
            scratch = self._scratch
            data = np.concatenate(
                [self._data[i] for i in index_order],
                out=scratch.resident("assemble.data", (total_nnz,), self.dtype),
            )
            indices = np.concatenate(
                [self._indices[i] for i in index_order],
                out=scratch.resident("assemble.indices", (total_nnz,), np.int64),
            )
            indptr = scratch.resident("assemble.indptr", (total + 1,), np.int64)
        else:
            data = np.concatenate([self._data[i] for i in index_order])
            indices = np.concatenate([self._indices[i] for i in index_order])
            indptr = np.empty(total + 1, dtype=np.int64)
        indices += np.repeat(offsets[:-1], nnz)
        indptr[0] = 0
        np.concatenate(
            [self._indptr_tail[i] for i in index_order], out=indptr[1:]
        )
        indptr[1:] += np.repeat(nnz_offsets[:-1], sizes)
        if reuse_buffers:
            features = self._scratch.resident(
                "assemble.features", (total, self.width), self.dtype
            )
        else:
            features = np.empty((total, self.width), self.dtype)
        if self._cols is None:
            np.concatenate(
                [self._dense[i] for i in index_order],
                out=features, casting="same_kind",
            )
            feature_onehot = None
        else:
            # Stacked node rows of the selected examples, as flat-arena
            # positions: one range gather replaces a per-example concatenate.
            row_positions = np.arange(total, dtype=np.int64) + np.repeat(
                self._node_starts[index_order] - offsets[:-1], sizes
            )
            feature_onehot = np.take(self._cols, row_positions, axis=0).astype(
                np.intp
            )
            onehot_rows(feature_onehot, features)
        return GraphBatch(
            operator=SparseOp(data, indices, indptr, (total, total)),
            features=features,
            node_offsets=offsets,
            labels=self.labels[index_order],
            feature_onehot=feature_onehot,
        )


class BatchCache:
    """A split partitioned into fixed, prebuilt :class:`GraphBatch` chunks.

    Construction pays the operator/stacking cost exactly once; afterwards the
    trainer iterates the cached batches directly, so validation and
    scoring epochs touch no constructors at all.
    """

    __slots__ = ("batch_size", "n_examples", "batches")

    def __init__(self, examples: Sequence[GraphExample], batch_size: int):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self.n_examples = len(examples)
        self.batches: list[GraphBatch] = [
            build_batch(examples[start : start + batch_size])
            for start in range(0, len(examples), batch_size)
        ]

    def __len__(self) -> int:
        return len(self.batches)

    def __getitem__(self, index: int) -> GraphBatch:
        return self.batches[index]

    def __iter__(self) -> Iterator[GraphBatch]:
        return iter(self.batches)
