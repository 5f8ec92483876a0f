"""Numerical gradient checks for the autograd engine."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.functional import linear


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check(build, *arrays, rtol=1e-5):
    """Compare autograd and numerical gradients of ``build(*tensors)``.

    The output is projected onto a fixed random upstream gradient, so
    every output element contributes to the scalar being differentiated.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    seed = np.random.default_rng(0).standard_normal(out.shape)
    out.backward(seed)

    def value():
        return float((build(*[Tensor(a) for a in arrays]).data * seed).sum())

    for tensor, array in zip(tensors, arrays):
        num = numerical_grad(value, array)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, num, rtol=rtol, atol=1e-7)


RNG = np.random.default_rng(42)


def test_activations():
    a = RNG.normal(size=(4, 3))
    check(lambda x: x.relu(), a)
    check(lambda x: x.exp(), a)


def test_relu_gradient_masks():
    a = np.array([[-1.0, 2.0], [3.0, -4.0]])
    t = Tensor(a, requires_grad=True)
    t.relu().backward(np.ones((2, 2)))
    np.testing.assert_array_equal(t.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_reshape():
    a = RNG.normal(size=(2, 6))
    check(lambda x: x.reshape(3, 4), a)
    check(lambda x: x.reshape(4, 3).exp().reshape(12), a)


def test_diamond_graph_accumulates():
    """x feeding one node twice (as linear's input and its weight) gets
    both contributions: d(x @ x + b) = grad x^T + x^T grad."""
    a = RNG.normal(size=(3, 3))
    b = RNG.normal(size=3)
    check(lambda x, bias: linear(x, x, bias), a, b)
    t = Tensor(a, requires_grad=True)
    linear(t, t, Tensor(b)).backward(np.ones((3, 3)))
    ones = np.ones((3, 3))
    np.testing.assert_allclose(t.grad, ones @ a.T + a.T @ ones)


def test_grad_accumulates_across_backwards():
    t = Tensor(np.array([1.0]), requires_grad=True)
    t.reshape(1, 1).backward(np.array([[2.0]]))
    t.reshape(1, 1).backward(np.array([[3.0]]))
    np.testing.assert_allclose(t.grad, [5.0])
    t.zero_grad()
    assert t.grad is None


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        t.relu().backward()


def test_no_grad_tracking_when_not_required():
    t = Tensor(np.ones(3))
    out = t.relu().exp()
    assert not out.requires_grad
    assert out._backward is None
