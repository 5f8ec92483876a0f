"""Gradient checks (float64 via conftest) and behaviour tests for the
fused graph convolution and the runtime plumbing (dtype policy,
no_grad, Workspace) the training engine runs on."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import (
    Tensor,
    Workspace,
    default_dtype,
    dtype_scope,
    no_grad,
    set_default_dtype,
)
from repro.nn.functional import graph_conv
from repro.nn.tensor import is_grad_enabled
from tests.nn.test_tensor import check, numerical_grad

RNG = np.random.default_rng(11)


# ------------------------------------------------------- fused graph conv
def test_graph_conv_matches_unfused_composition():
    adj = sp.random(7, 7, density=0.4, random_state=3, format="csr")
    h = RNG.normal(size=(7, 4))
    w = RNG.normal(size=(4, 5))
    fused = graph_conv(adj, Tensor(h), Tensor(w), workspace=Workspace())
    np.testing.assert_array_equal(fused.data, np.tanh(adj @ (h @ w)))


def test_graph_conv_gradients():
    adj = sp.random(6, 6, density=0.5, random_state=4, format="csr")
    h = RNG.normal(size=(6, 3))
    w = RNG.normal(size=(3, 2))
    check(lambda hh, ww: graph_conv(adj, hh, ww, workspace=Workspace()), h, w)


# --------------------------------------------------------- runtime plumbing
def test_dtype_policy_roundtrip():
    # The conftest fixture has switched us to float64.
    assert default_dtype() == np.float64
    with dtype_scope(np.float32):
        assert default_dtype() == np.float32
        assert Tensor(np.ones(3)).data.dtype == np.float32
    assert default_dtype() == np.float64
    with pytest.raises(ValueError):
        set_default_dtype(np.int32)


def test_no_grad_disables_tape():
    t = Tensor(np.ones(3), requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        out = t.relu()
        assert not out.requires_grad
        assert out._backward is None
    out = t.relu()
    assert out.requires_grad


def test_workspace_recycles_buffers():
    ws = Workspace()
    a = ws.acquire((3, 4), np.float64)
    ws.release(a)
    b = ws.acquire((3, 4), np.float64)
    assert b is a
    c = ws.acquire((3, 4), np.float64)  # pool empty again -> fresh array
    assert c is not a
    assert ws.acquire((2, 2), np.float64).shape == (2, 2)


def test_max_pool1d_gradient_handles_fortran_ordered_input():
    """The non-overlapping scatter must not assume C-ordered inputs."""
    from repro.nn import max_pool1d

    x = np.asfortranarray(RNG.normal(size=(2, 3, 6)))
    t = Tensor(x, requires_grad=True)
    t.data = np.asfortranarray(t.data)  # Tensor() normalizes; force F order
    out = max_pool1d(t)
    out.backward(np.ones(out.shape))
    assert t.grad.sum() == pytest.approx(out.data.size)
    # One unit of gradient per window, landing on that window's argmax.
    xc = np.ascontiguousarray(x)
    num = numerical_grad(
        lambda: float(max_pool1d(Tensor(xc)).data.sum()), xc
    )
    np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-8)


def test_conv_workspace_reuse_keeps_gradients_exact():
    """Reusing the im2col buffer across steps must not corrupt gradients."""
    from repro.nn import Conv1d

    layer = Conv1d(2, 3, kernel_size=3, rng=np.random.default_rng(0))
    x = RNG.normal(size=(2, 2, 8))

    def run():
        t = Tensor(x, requires_grad=True)
        out = layer(t)
        layer.zero_grad()
        out.backward(np.ones(out.shape))
        return t.grad.copy(), layer.weight.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()  # second pass reuses the released buffer
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)
    num = numerical_grad(lambda: float(layer(Tensor(x)).data.sum()), x)
    np.testing.assert_allclose(gx1, num, rtol=1e-5, atol=1e-7)
