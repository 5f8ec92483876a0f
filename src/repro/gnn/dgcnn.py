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
  kernel/stride equal to the per-node feature width, the second kernel 5 —
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

__all__ = ["DGCNN", "choose_sortpool_k"]

#: Smallest usable SortPooling k: after the width-2 max-pool the second
#: convolution (kernel 5) still needs at least one output position.
MIN_SORTPOOL_K = 10


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
    """Graph classifier for link prediction.

    Args:
        in_features: width of the node-information matrix.
        k: SortPooling size (use :func:`choose_sortpool_k`).
        gc_channels: per-layer graph-convolution output widths.
        conv_channels: the two 1-D convolution widths.
        dense_units: hidden dense-layer width.
        dropout: dropout rate before the output layer.
        seed: parameter-initialization / dropout seed.
        init: draw the initial weights from *seed*; ``False`` leaves
            them as read-only zeros that allocate nothing, for
            :meth:`load_state_dict` to replace (see :meth:`from_state`).
    """

    def __init__(
        self,
        in_features: int,
        k: int,
        gc_channels: tuple[int, ...] = (32, 32, 32, 1),
        conv_channels: tuple[int, int] = (16, 32),
        dense_units: int = 128,
        dropout: float = 0.5,
        seed: int = 0,
        init: bool = True,
    ):
        if k < MIN_SORTPOOL_K:
            raise ValueError(f"k must be >= {MIN_SORTPOOL_K}, got {k}")
        rng = np.random.default_rng(seed) if init else None
        self.k = k
        self.gc_layers = [
            GraphConv(cin, cout, rng)
            for cin, cout in zip((in_features,) + gc_channels[:-1], gc_channels)
        ]
        self.gc_channels = tuple(gc_channels)
        self.node_width = int(sum(gc_channels))
        # Forward workspace: the per-layer graph-conv outputs and the
        # graph_conv / sortpool_conv scratch slots are recycled across
        # steps (see ``forward``).
        self._workspace = Workspace()
        self.conv1 = Conv1d(
            1, conv_channels[0], kernel_size=self.node_width,
            rng=rng, stride=self.node_width,
        )
        self.conv2 = Conv1d(
            conv_channels[0], conv_channels[1], kernel_size=5, rng=rng
        )
        conv2_len = (k // 2) - 4
        self.flat_width = conv_channels[1] * conv2_len
        self.fc1 = Linear(self.flat_width, dense_units, rng)
        self.dropout = Dropout(dropout, np.random.default_rng(seed + 1))
        self.fc2 = Linear(dense_units, 2, rng)
        self.training = True

    @classmethod
    def from_state(
        cls, in_features: int, k: int, state: list[np.ndarray]
    ) -> "DGCNN":
        """A trained model rebuilt from :meth:`state_dict` arrays (eval mode).

        Draws no random init — the weights are loaded, not overwritten —
        and checks every shape as :meth:`load_state_dict` does.  It takes
        ownership of each array whose dtype already matches its
        parameter's (and that is writable and C-ordered): the model keeps
        that array itself, so the caller must not reuse it.  Any other
        array is cast into a copy.
        """
        model = cls(in_features, k, init=False)
        for param, data in zip(model._checked(state), state):
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
        for i, (layer, width) in enumerate(zip(self.gc_layers, self.gc_channels)):
            h = layer(
                operator, h,
                out=workspace.resident(f"dgcnn.gc{i}", (n_nodes, width), dtype),
                workspace=workspace,
                # Layer 1 only: the assembler's one-hot feature columns
                # turn H @ W into a few row gathers of W.
                feature_cols=getattr(batch, "feature_onehot", None)
                if i == 0 else None,
            )
            layer_outputs.append(h)

        indices = self._sortpool_indices(layer_outputs[-1].data, batch)
        # SortPooling gather fused with the node-wide first convolution:
        # the pooled H^{1:L} matrix never materializes (see sortpool_conv).
        z = sortpool_conv(
            layer_outputs, indices,
            self.conv1.weight, self.conv1.bias, self.k,
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
