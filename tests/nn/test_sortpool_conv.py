"""Float64 references for SortPooling fused with the first convolution,
and one gradient check of the whole DGCNN loss through it."""

import numpy as np
import pytest

from repro.gnn import DGCNN, GraphExample, build_batch
from repro.nn import Tensor, Workspace, sortpool_conv
from tests.nn.test_tensor import check

WIDTHS = (3, 2, 1)  # per-layer output widths, the last one the sort key
K = 4


def _inputs(rng):
    """Three layer outputs over 9 stacked nodes, pooled into 3 graphs of
    k=4 rows: graph 0 full, graph 1 with 2 nodes and graph 2 with 1 node
    (so 3 padding rows), plus a stride-``width`` kernel and bias."""
    layers = [rng.standard_normal((9, c)) for c in WIDTHS]
    indices = np.array([4, 0, 7, 2, 8, 5, -1, -1, 1, -1, -1, -1])
    width = sum(WIDTHS)
    weight = rng.standard_normal((5, 1, width))
    bias = rng.standard_normal(5)
    return layers, indices, weight, bias


def _reference(layers, indices, weight, bias):
    """Gather the row-concatenated layers (``-1`` rows zeroed), then run
    the stride-``width`` convolution as one GEMM."""
    stacked = np.concatenate(layers, axis=1)
    pooled = np.where((indices >= 0)[:, None], stacked[indices], 0.0)
    c_out, _, width = weight.shape
    out = pooled @ weight.reshape(c_out, width).T + bias
    return out.reshape(-1, K, c_out).transpose(0, 2, 1)


def test_sortpool_conv_forward_matches_numpy():
    layers, indices, weight, bias = _inputs(np.random.default_rng(1))
    out = sortpool_conv(
        [Tensor(a) for a in layers], indices, Tensor(weight), Tensor(bias),
        K, workspace=Workspace(),
    )
    assert out.shape == (3, 5, K)
    np.testing.assert_allclose(
        out.data, _reference(layers, indices, weight, bias),
        rtol=1e-13, atol=1e-13,
    )
    # A padding row's output is exactly the bias.
    np.testing.assert_array_equal(out.data[1, :, 2], bias)


def test_sortpool_conv_gradients_with_padding_rows():
    layers, indices, weight, bias = _inputs(np.random.default_rng(2))

    def build(*tensors):
        return sortpool_conv(
            list(tensors[:3]), indices, tensors[3], tensors[4], K,
            workspace=Workspace(),
        )

    check(build, *layers, weight, bias)


def test_sortpool_conv_rejects_bad_shapes():
    layers, indices, weight, bias = _inputs(np.random.default_rng(3))
    tensors = [Tensor(a) for a in layers]
    with pytest.raises(ValueError, match="tile"):
        sortpool_conv(
            tensors, indices[:-1], Tensor(weight), Tensor(bias), K,
            workspace=Workspace(),
        )
    with pytest.raises(ValueError, match="span"):
        sortpool_conv(
            tensors, indices, Tensor(weight[:, :, :-1]), Tensor(bias), K,
            workspace=Workspace(),
        )


def test_dgcnn_loss_gradient_in_eval_mode():
    """Central differences on the full loss, over a batch that holds a
    graph smaller than k (so SortPooling pads), in eval mode (no dropout).

    Dense random features keep every SortPooling score distinct, so the
    eps-sized probes never reorder nodes.  Each parameter is probed at
    16 random coordinates rather than all ~10k.
    """
    rng = np.random.default_rng(4)
    examples = []
    for n, label in ((14, 1), (4, 0), (11, 1)):
        edges = rng.integers(0, n, size=(2 * n, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        examples.append(
            GraphExample(n, edges, rng.standard_normal((n, 3)), label=label)
        )
    batch = build_batch(examples)
    model = DGCNN(in_features=3, k=10, seed=5)
    model.eval()
    # Biases start at zero, which would put every padding row's output
    # (exactly the conv bias) on the ReLU kink.
    for bias in (model.conv1_bias, model.conv2.bias, model.fc1.bias,
                 model.fc2.bias):
        bias.data = rng.standard_normal(bias.shape)

    loss = model.loss(batch)
    model.zero_grad()
    loss.backward()
    grads = [p.grad.copy() for p in model.parameters()]

    eps = 1e-6
    for param, grad in zip(model.parameters(), grads):
        flat = param.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(16, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            hi = model.loss(batch).item()
            flat[i] = orig - eps
            lo = model.loss(batch).item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * eps)
            assert grad.reshape(-1)[i] == pytest.approx(
                numeric, rel=1e-4, abs=1e-8
            ), (param.shape, i)
