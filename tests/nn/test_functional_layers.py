"""Gradient checks and behaviour tests for NN ops, layers and optimizers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dropout,
    GraphConv,
    Linear,
    Module,
    Tensor,
    Workspace,
    max_pool1d,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.functional import conv1d, linear, log_softmax
from tests.nn.test_tensor import check

RNG = np.random.default_rng(7)


def test_conv1d_forward_known_values():
    x = Tensor(np.arange(6, dtype=float).reshape(1, 1, 6))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv1d(x, w, b, stride=1)
    np.testing.assert_array_equal(out.data[0, 0], [1, 3, 5, 7, 9])
    out2 = conv1d(x, w, b, stride=2)
    np.testing.assert_array_equal(out2.data[0, 0], [1, 5, 9])


def test_conv1d_gradients():
    x = RNG.normal(size=(2, 3, 8))
    w = RNG.normal(size=(4, 3, 3))
    b = RNG.normal(size=(4,))
    check(lambda xx, ww, bb: conv1d(xx, ww, bb, stride=2), x, w, b)


def test_conv1d_shape_validation():
    x = Tensor(np.zeros((1, 2, 4)))
    w = Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(ValueError):
        conv1d(x, w, Tensor(np.zeros(1)))
    w2 = Tensor(np.zeros((1, 2, 5)))
    with pytest.raises(ValueError):
        conv1d(x, w2, Tensor(np.zeros(1)))


def test_max_pool1d_forward_and_grad():
    x = Tensor(
        np.array([[[1.0, 3.0, 2.0, 8.0, 5.0, 4.0]]]), requires_grad=True
    )
    out = max_pool1d(x)
    np.testing.assert_array_equal(out.data[0, 0], [3, 8, 5])
    out.backward(np.ones(out.shape))
    np.testing.assert_array_equal(
        x.grad[0, 0], [0, 1, 0, 1, 1, 0]
    )


def _copyto_pool_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Reference size-2 backward: two masked stores into a zero buffer."""
    t_out = x.shape[-1] // 2
    arg = x[:, :, 1 : 2 * t_out : 2] > x[:, :, 0 : 2 * t_out : 2]
    gx = np.zeros(x.shape, dtype=x.dtype)
    np.copyto(gx[:, :, 0 : 2 * t_out : 2], grad, where=~arg)
    np.copyto(gx[:, :, 1 : 2 * t_out : 2], grad, where=arg)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [8, 9, 2, 3])
def test_max_pool1d_size2_grad_bit_identical_to_masked_stores(dtype, length):
    """Ties go to the first tap, negative and -0.0 gradients land exactly,
    losing taps hold +0.0 and an odd length's last column stays zero."""
    rng = np.random.default_rng(length)
    x = rng.integers(-2, 3, size=(3, 4, length)).astype(dtype)  # many ties
    t_out = length // 2
    grad = rng.standard_normal((3, 4, t_out)).astype(dtype)
    grad[0, 0, :] = -0.0
    grad[1] = -np.abs(grad[1])
    t = Tensor(x, requires_grad=True, dtype=dtype)
    max_pool1d(t).backward(grad)
    expected = _copyto_pool_grad(x, grad)
    assert t.grad.dtype == expected.dtype and t.grad.shape == expected.shape
    assert t.grad.tobytes() == expected.tobytes()


def test_max_pool1d_grad_numeric():
    x = RNG.normal(size=(2, 2, 7))
    check(max_pool1d, x)
    with pytest.raises(ValueError, match="does not fit"):
        max_pool1d(Tensor(x[:, :, :1]))


def test_log_softmax_and_softmax():
    x = RNG.normal(size=(4, 3)) * 5
    check(log_softmax, x)
    probs = softmax(Tensor(x)).data
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()


def test_cross_entropy_matches_manual():
    logits = Tensor(np.array([[2.0, 0.5], [0.1, 1.2]]), requires_grad=True)
    labels = np.array([0, 1])
    loss = softmax_cross_entropy(logits, labels)
    manual = -np.mean(
        [
            np.log(np.exp(2.0) / (np.exp(2.0) + np.exp(0.5))),
            np.log(np.exp(1.2) / (np.exp(0.1) + np.exp(1.2))),
        ]
    )
    assert loss.item() == pytest.approx(manual)


def test_cross_entropy_gradient():
    logits = RNG.normal(size=(5, 2))
    labels = np.array([0, 1, 1, 0, 1])
    check(lambda t: softmax_cross_entropy(t, labels), logits)


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array([0]))


def test_dropout_eval_mode_is_identity():
    layer = Dropout(0.5, np.random.default_rng(0))
    layer.eval()
    x = Tensor(np.ones((4, 4)))
    assert layer(x) is x


def test_dropout_scales_kept_units():
    layer = Dropout(0.5, np.random.default_rng(0))
    x = Tensor(np.ones((100, 100)), requires_grad=True)
    out = layer(x)
    values = np.unique(out.data)
    assert set(values) <= {0.0, 2.0}
    # Unbiased in expectation.
    assert out.data.mean() == pytest.approx(1.0, abs=0.05)


def test_linear_layer_trains_to_regression_target():
    rng = np.random.default_rng(3)
    layer = Linear(4, 1, rng)
    true_w = np.array([[1.0], [-2.0], [0.5], [3.0]])
    x = rng.normal(size=(64, 4))
    y = x @ true_w
    opt = Adam(layer.parameters(), lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        pred = layer(Tensor(x))
        # d/dpred of the mean squared error
        pred.backward(2.0 * (pred.data - y) / y.size)
        opt.step()
    np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)


def test_graphconv_shapes_and_grad():
    import scipy.sparse as sp

    adj = sp.identity(5, format="csr")
    layer = GraphConv(3, 4, np.random.default_rng(0))
    h = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    out = layer(adj, h, Workspace())
    assert out.shape == (5, 4)
    out.backward(np.ones(out.shape))
    assert h.grad is not None
    assert layer.weight.grad is not None


def test_module_parameter_discovery_and_state_dict():
    class Net(Module):
        def __init__(self):
            rng = np.random.default_rng(0)
            self.fc1 = Linear(3, 4, rng)
            self.blocks = [Linear(4, 4, rng), Linear(4, 2, rng)]

    net = Net()
    params = net.parameters()
    assert len(params) == 6  # 3 layers x (weight, bias)
    state = net.state_dict()
    for p in params:
        p.data = p.data * 0
    net.load_state_dict(state)
    assert any(p.data.any() for p in net.parameters())
    with pytest.raises(ValueError):
        net.load_state_dict(state[:-1])


def test_linear_functional_matches_composed_ops():
    rng = np.random.default_rng(3)
    w_data = rng.normal(size=(5, 4))
    b_data = rng.normal(size=4)
    x_data = rng.normal(size=(7, 5))

    grad = rng.normal(size=(7, 4))

    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = linear(x, w, b)
    out.backward(grad)

    # The same GEMMs and reductions in plain numpy, bit for bit.
    np.testing.assert_array_equal(out.data, x_data @ w_data + b_data)
    np.testing.assert_array_equal(w.grad, x_data.T @ grad)
    np.testing.assert_array_equal(b.grad, grad.sum(axis=0))
    np.testing.assert_array_equal(x.grad, grad @ w_data.T)


def test_linear_rejects_non_2d_input():
    w = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros(3)), w, b)


# ---------------------------------------------------------------------------
# Adam state validation: clear errors instead of broadcast failures half-way
# through an arena write
# ---------------------------------------------------------------------------
class TwoLayer(Module):
    """Linear -> relu -> Linear, enough structure for block discovery."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(5, 7, rng)
        self.fc2 = Linear(7, 2, rng)

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu())


def test_adam_load_state_rejects_wrong_moment_count():
    model = TwoLayer()
    adam = Adam(model.parameters(), lr=1e-3)
    state = adam.state_dict()
    state["m"] = state["m"][:-1]
    with pytest.raises(ValueError, match="moment arrays"):
        adam.load_state_dict(state)


def test_adam_load_state_rejects_wrong_moment_shape_before_mutation():
    model = TwoLayer()
    adam = Adam(model.parameters(), lr=1e-3)
    state = adam.state_dict()
    for m in state["m"]:
        m += 1.0  # recognizable values that must NOT land
    state["v"][-1] = np.zeros((9, 9))
    with pytest.raises(ValueError, match="parameter 3"):
        adam.load_state_dict(state)
    for m in adam.state_dict()["m"]:
        np.testing.assert_array_equal(m, np.zeros_like(m))


def test_adam_rejects_mixed_parameter_dtypes():
    params = [
        Tensor(np.zeros(3), requires_grad=True, dtype=np.float32),
        Tensor(np.zeros(2), requires_grad=True, dtype=np.float64),
    ]
    with pytest.raises(ValueError, match="mix dtypes"):
        Adam(params)


def test_adam_step_rejects_a_missing_gradient_before_mutation():
    model = TwoLayer()
    adam = Adam(model.parameters(), lr=1e-3)
    for param in model.parameters()[:-1]:
        param.grad = np.ones_like(param.data)
    before = model.state_dict()
    with pytest.raises(ValueError, match="parameter 3 has no gradient"):
        adam.step()
    assert adam.t == 0
    for a, b in zip(model.state_dict(), before):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rank1_matmul_bytes_equal_the_k1_gemm(dtype):
    """The rank-1 path graph_conv / sortpool_conv take is byte-identical
    to ``np.matmul``: signed zeros, underflow and ordinary products."""
    from repro.nn.functional import _matmul

    tiny = np.finfo(dtype).tiny
    special = [0.0, -0.0, tiny, -tiny, np.sqrt(tiny), -np.sqrt(tiny), 1.0, -3.5]
    rng = np.random.default_rng(7)
    column = np.concatenate([special, rng.standard_normal(2450)])
    row = np.concatenate([special, rng.standard_normal(24)])
    column = column.astype(dtype)[:, None]
    row = row.astype(dtype)[None, :]
    expected = np.matmul(column, row)
    assert (np.signbit(expected) != np.signbit(column * row)).any()  # -0.0 seen
    assert ((expected != 0) & (np.abs(expected) < tiny)).any()  # subnormals
    assert _matmul(column, row).tobytes() == expected.tobytes()
    out = np.full_like(expected, np.nan)
    assert _matmul(column, row, out=out) is out
    assert out.tobytes() == expected.tobytes()
