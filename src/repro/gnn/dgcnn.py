"""DGCNN — deep graph convolutional neural network (Zhang et al., AAAI'18).

The exact architecture of the paper (Sec. IV "GNN Topology"):

* four graph-convolution layers with {32, 32, 32, 1} output channels and
  ``tanh`` activations (Eq. 4), run through the fused
  :func:`repro.nn.functional.graph_conv` kernel,
* concatenation ``H^{1:L}`` of all layer outputs per node,
* SortPooling to the top-``k`` nodes ordered by the last (1-channel) layer
  — vectorized as a single lexsort over ``(graph_id, -score)`` plus one
  top-k scatter, instead of a per-graph argsort loop,
* two 1-D convolution layers with {16, 32} output channels — the first has
  kernel/stride equal to the per-node feature width and is fused into
  SortPooling (:func:`repro.nn.sortpool_conv`), the second kernel 5 —
  with a max-pool of size 2 in between, ReLU activations,
* a 128-unit dense layer, dropout 0.5, and a 2-way softmax output.

Inference (``predict_proba``) runs under :func:`repro.nn.no_grad`, so
evaluation and scoring record no tape and keep no intermediates alive.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.batching import GraphBatch
from repro.nn import (
    Conv1d,
    Dropout,
    GraphConv,
    Linear,
    Module,
    Tensor,
    Workspace,
    max_pool1d,
    no_grad,
    softmax,
    softmax_cross_entropy,
    sortpool_conv,
)
from repro.nn.layers import _unset

__all__ = ["DGCNN", "choose_sortpool_k"]

#: Smallest usable SortPooling k: after the width-2 max-pool the second
#: convolution (kernel 5) still needs at least one output position.
MIN_SORTPOOL_K = 10

#: The paper's topology (Sec. IV): graph-convolution output widths,
#: the two 1-D convolution widths, the dense-layer width and the dropout
#: rate before the output layer.
GC_CHANNELS = (32, 32, 32, 1)
CONV_CHANNELS = (16, 32)
CONV2_KERNEL = 5
DENSE_UNITS = 128
DROPOUT = 0.5


def _check_sizes(in_features: int, k: int) -> None:
    if in_features < 0:
        raise ValueError(f"in_features must be >= 0, got {in_features}")
    if k < MIN_SORTPOOL_K:
        raise ValueError(f"k must be >= {MIN_SORTPOOL_K}, got {k}")


def _flat_width(k: int) -> int:
    """Width of the flattened second-convolution output: the width-2
    max-pool halves k, and the unpadded kernel trims its edges."""
    return CONV_CHANNELS[1] * (k // 2 - CONV2_KERNEL + 1)


def choose_sortpool_k(
    subgraph_sizes: list[int], percentile: float = 0.6
) -> int:
    """Pick k so that ``percentile`` of subgraphs have at most k nodes.

    Mirrors the paper: "we set k such that 60% of subgraphs have nodes less
    than or equal to k", clamped to :data:`MIN_SORTPOOL_K`.
    """
    if not subgraph_sizes:
        raise ValueError("need at least one subgraph size")
    if not 0.0 < percentile <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {percentile}")
    k = int(np.quantile(np.asarray(subgraph_sizes), percentile))
    return max(MIN_SORTPOOL_K, k)


class DGCNN(Module):
    """Graph classifier for link prediction, at the paper's fixed
    topology (:data:`GC_CHANNELS`, :data:`CONV_CHANNELS`,
    :data:`DENSE_UNITS`, :data:`DROPOUT`).

    Args:
        in_features: width of the node-information matrix.
        k: SortPooling size (use :func:`choose_sortpool_k`).
        seed: parameter-initialization / dropout seed.
        init: draw the initial weights from *seed*; ``False`` leaves
            them as read-only zeros that allocate nothing, for
            :meth:`load_state_dict` to replace (see :meth:`from_state`).
    """

    def __init__(
        self,
        in_features: int,
        k: int,
        seed: int = 0,
        init: bool = True,
    ):
        _check_sizes(in_features, k)
        rng = np.random.default_rng(seed) if init else None
        self.k = k
        self.gc_layers = [
            GraphConv(cin, cout, rng)
            for cin, cout in zip((in_features,) + GC_CHANNELS[:-1], GC_CHANNELS)
        ]
        self.node_width = sum(GC_CHANNELS)
        # Forward workspace: the per-layer graph-conv outputs and the
        # graph_conv / sortpool_conv scratch slots are recycled across
        # steps (see ``forward``).
        self._workspace = Workspace()
        # The first 1-D convolution (kernel and stride node_width) only
        # ever runs fused into SortPooling, so it is its two parameters.
        shape = (CONV_CHANNELS[0], 1, self.node_width)
        if rng is None:
            conv1_weight = _unset(*shape)
        else:
            scale = np.sqrt(2.0 / self.node_width)
            conv1_weight = rng.normal(0.0, scale, size=shape)
        self.conv1_weight = Tensor(conv1_weight, requires_grad=True)
        self.conv1_bias = Tensor(np.zeros(CONV_CHANNELS[0]), requires_grad=True)
        self.conv2 = Conv1d(
            CONV_CHANNELS[0], CONV_CHANNELS[1], kernel_size=CONV2_KERNEL,
            rng=rng,
        )
        self.flat_width = _flat_width(k)
        self.fc1 = Linear(self.flat_width, DENSE_UNITS, rng)
        self.dropout = Dropout(DROPOUT, np.random.default_rng(seed + 1))
        self.fc2 = Linear(DENSE_UNITS, 2, rng)
        self.training = True

    @staticmethod
    def state_shapes(in_features: int, k: int) -> list[tuple[int, ...]]:
        """The :meth:`state_dict` array shapes of ``DGCNN(in_features, k)``,
        in order, without building the model.

        Raises:
            ValueError: for every ``(in_features, k)`` the constructor
                refuses.
        """
        _check_sizes(in_features, k)
        c1, c2 = CONV_CHANNELS
        return [
            *zip((in_features,) + GC_CHANNELS[:-1], GC_CHANNELS),
            (c1, 1, sum(GC_CHANNELS)), (c1,),
            (c2, c1, CONV2_KERNEL), (c2,),
            (_flat_width(k), DENSE_UNITS), (DENSE_UNITS,),
            (DENSE_UNITS, 2), (2,),
        ]

    @classmethod
    def check_state(
        cls, in_features: int, k: int, state: list[np.ndarray]
    ) -> None:
        """Raise ``ValueError`` unless :meth:`from_state` accepts
        *state* for ``(in_features, k)``: one numeric array per
        parameter, each of its parameter's shape."""
        shapes = cls.state_shapes(in_features, k)
        if len(state) != len(shapes):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(shapes)}"
            )
        for i, (shape, data) in enumerate(zip(shapes, state)):
            if not isinstance(data, np.ndarray) or data.dtype.kind not in "biuf":
                raise ValueError(
                    f"parameter {i}: not a numeric array ({type(data).__name__})"
                )
            if data.shape != shape:
                raise ValueError(
                    f"parameter {i}: shape mismatch {shape} vs {data.shape}"
                )

    @classmethod
    def from_state(
        cls, in_features: int, k: int, state: list[np.ndarray]
    ) -> "DGCNN":
        """A trained model rebuilt from :meth:`state_dict` arrays (eval mode).

        Draws no random init — the weights are loaded, not overwritten —
        and rejects what :meth:`check_state` rejects before it builds
        anything.  It takes ownership of each array whose dtype already
        matches its parameter's (and that is writable and C-ordered):
        the model keeps that array itself, so the caller must not reuse
        it.  Any other array is cast into a copy.
        """
        cls.check_state(in_features, k, state)
        model = cls(in_features, k, init=False)
        for param, data in zip(model.parameters(), state):
            param.data = np.require(data, param.data.dtype, ("C", "W"))
        model.eval()
        return model

    # ------------------------------------------------------------ plumbing
    def _sortpool_indices(self, last_layer: np.ndarray, batch: GraphBatch) -> np.ndarray:
        """Per-graph top-k node rows ordered by the 1-channel layer value.

        Fully vectorized: one stable lexsort over ``(graph_id, -score)``
        groups every graph's nodes contiguously in descending-score order
        (ties broken by original row, matching a per-graph stable argsort),
        then a single masked scatter writes the top-k rows of every graph.

        Returns absolute row indices into the stacked node matrix, ``-1``
        where a graph has fewer than k nodes (zero padding).
        """
        scores = last_layer[:, -1]
        graph_ids = batch.graph_ids
        if scores.dtype == np.float32 and graph_ids.size:
            # One stable radix-friendly uint64 sort instead of lexsort's
            # two key passes.  The monotone bit trick maps float32 to
            # uint32 preserving exact comparison order (adding +0.0 first
            # collapses -0.0 onto +0.0, matching float equality); bitwise
            # inversion reverses it for the descending-score key.  The
            # resulting order is identical to
            # ``np.lexsort((-scores, graph_ids))``, ties and all.
            bits = (scores + np.float32(0.0)).view(np.uint32)
            negative = (bits >> np.uint32(31)).astype(bool)
            ascending = np.where(negative, ~bits, bits | np.uint32(0x80000000))
            descending = ~ascending
            combined = (graph_ids.astype(np.uint64) << np.uint64(32)) | descending
            order = np.argsort(combined, kind="stable")
        else:
            # lexsort is stable and sorts by the last key first: primary
            # graph_id, secondary descending score, ties by original index.
            order = np.lexsort((-scores, graph_ids))
        # Sorted position j holds graph graph_ids[j] (grouping and group
        # sizes are unchanged by the sort), at within-graph rank
        # segment_positions[j].
        within = batch.segment_positions
        take = within < self.k
        indices = np.full(batch.n_graphs * self.k, -1, dtype=np.int64)
        indices[graph_ids[take] * self.k + within[take]] = order[take]
        return indices

    def forward(self, batch: GraphBatch) -> Tensor:
        """Compute ``(n_graphs, 2)`` classification logits.

        Zero-alloc steady state: the graph convolutions run against the
        batch's cached block-sparse operator and write into recycled
        per-layer :meth:`~repro.nn.tensor.Workspace.resident` slots, and
        the ``H^{1:L}`` concatenation never materializes — SortPooling's
        row gather commutes with the column concat, so
        :func:`~repro.nn.sortpool_conv` feeds each layer's gathered block
        straight into its column slice of the first convolution's kernel.
        Consequence of the buffer reuse: a forward's tape must be consumed
        (``backward`` or discarded) before the same model's next forward —
        the pattern of every training/eval loop here.
        """
        operator = batch.operator
        workspace = self._workspace
        h = Tensor(batch.features)
        dtype = h.data.dtype
        n_nodes = batch.n_nodes
        layer_outputs: list[Tensor] = []
        for i, (layer, width) in enumerate(zip(self.gc_layers, GC_CHANNELS)):
            h = layer(
                operator, h,
                out=workspace.resident(f"dgcnn.gc{i}", (n_nodes, width), dtype),
                workspace=workspace,
                # Layer 1 in training only: the assembler's one-hot
                # feature columns turn H @ W into a few row gathers of W.
                # Validation and scoring keep the GEMM they always ran.
                feature_cols=getattr(batch, "feature_onehot", None)
                if i == 0 and self.training else None,
            )
            layer_outputs.append(h)

        indices = self._sortpool_indices(layer_outputs[-1].data, batch)
        # SortPooling gather fused with the node-wide first convolution:
        # the pooled H^{1:L} matrix never materializes (see sortpool_conv).
        z = sortpool_conv(
            layer_outputs, indices,
            self.conv1_weight, self.conv1_bias, self.k,
            workspace=workspace,
        ).relu()  # (B, c1, k)
        z = max_pool1d(z)  # (B, c1, k//2)
        z = self.conv2(z).relu()  # (B, c2, k//2 - 4)
        z = z.reshape(batch.n_graphs, self.flat_width)
        z = self.fc1(z).relu()
        z = self.dropout(z)
        return self.fc2(z)

    __call__ = forward

    def loss(self, batch: GraphBatch) -> Tensor:
        """Mean cross-entropy against the batch labels."""
        if (batch.labels < 0).any():
            raise ValueError("batch contains unlabeled graphs")
        return softmax_cross_entropy(self.forward(batch), batch.labels)

    def predict_proba(self, batch: GraphBatch) -> np.ndarray:
        """Per-graph likelihood of class 1 ("link exists").

        Runs in eval mode under ``no_grad``: no tape is recorded.
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                probs = softmax(self.forward(batch)).data
        finally:
            if was_training:
                self.train()
        return probs[:, 1]
