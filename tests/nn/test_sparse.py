"""Parity and gradient tests for the sparse spmm engine.

:class:`SparseOp` must be **bit-identical** to the plain scipy
composition in float64; in float32 the kernels are order-exact by
construction, and the documented guarantee is agreement within
``rtol=1e-6`` (in practice the parity is bitwise there too).  Both ways
an operator is built are covered — from a scipy matrix (``scipy``) and
stitched from per-example arrays by :class:`BatchAssembler`
(``assembled``).  Fixtures cover the block shapes the batcher produces:
empty graphs, isolated nodes, degree-skewed stars and random batches.

The module-level ``float64_runtime`` fixture (see ``conftest.py``) keeps
the gradient checks in float64.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import BatchAssembler, GraphExample, build_batch
from repro.nn import (
    SparseOp,
    Tensor,
    Workspace,
    as_sparse_op,
    csr_from_parts,
    dtype_scope,
    gather_stack,
    graph_conv,
    stack_columns,
)
from repro.nn.tensor import concat

SOURCES = ["scipy", "assembled"]


def _example(rng, n, kind="random"):
    if kind == "empty":
        edges = np.empty((0, 2), dtype=np.int64)
    elif kind == "star":  # degree-skewed: one hub touching every node
        edges = np.array([(0, i) for i in range(1, n)], dtype=np.int64)
    elif kind == "isolated":  # a few edges, most nodes isolated
        edges = np.array([(0, 1)], dtype=np.int64) if n > 1 else np.empty((0, 2), dtype=np.int64)
    else:
        m = int(rng.integers(1, 3 * n))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.int64)
        edges = edges[edges[:, 0] != edges[:, 1]]
        if not len(edges):
            edges = np.array([(0, min(1, n - 1))], dtype=np.int64)
    features = rng.standard_normal((n, 4))
    return GraphExample(n, edges, features, label=int(rng.integers(0, 2)))


def batch_operator(source, examples):
    """``(operator, csr)`` of *examples* fused into one batch.

    ``scipy`` wraps the :func:`build_batch` matrix; ``assembled`` is the
    operator :class:`BatchAssembler` stitches for a shuffled order.
    """
    if source == "scipy":
        matrix = build_batch(examples).norm_adj
        return SparseOp.from_csr(matrix), matrix.tocsr()
    order = np.random.default_rng(len(examples)).permutation(len(examples))
    batch = BatchAssembler(examples).assemble(order)
    return batch.operator, batch.norm_adj.tocsr()


def parity_operators(rng, source="scipy"):
    """Operators exercising every block shape the batcher can produce."""
    singles = [
        _example(rng, 1, "empty"),
        _example(rng, 5, "empty"),
        _example(rng, 7, "isolated"),
        _example(rng, 41, "star"),
        _example(rng, 12),
    ]
    mixed = singles + [_example(rng, int(rng.integers(2, 30))) for _ in range(6)]
    return [batch_operator(source, [e]) for e in singles] + [
        batch_operator(source, mixed)
    ]


@pytest.mark.parametrize("source", SOURCES)
def test_matmul_parity_float64_bitwise(source):
    rng = np.random.default_rng(0)
    for op, matrix in parity_operators(rng, source):
        dense = rng.standard_normal((matrix.shape[0], 5))
        reference = matrix @ dense
        reference_t = matrix.T @ dense
        assert np.array_equal(op.matmul(dense), reference)
        assert np.array_equal(op.matmul_t(dense), reference_t)
        # preallocated outputs, including strided destinations
        out = np.empty_like(reference)
        assert np.array_equal(op.matmul(dense, out=out), reference)
        wide = np.empty((matrix.shape[0], 10))
        view = wide[:, 2:7]
        op.matmul(dense, out=view)
        assert np.array_equal(view, reference)


@pytest.mark.parametrize("source", SOURCES)
def test_matmul_parity_float32(source):
    """float32 guarantee: rtol 1e-6 (order-exact kernels are bitwise)."""
    rng = np.random.default_rng(1)
    with dtype_scope(np.float32):
        for op, matrix in parity_operators(rng, source):
            dense = rng.standard_normal((matrix.shape[0], 5)).astype(np.float32)
            np.testing.assert_allclose(
                op.matmul(dense), matrix @ dense, rtol=1e-6, atol=1e-7
            )
            np.testing.assert_allclose(
                op.matmul_t(dense), matrix.T @ dense, rtol=1e-6, atol=1e-7
            )


def test_single_column_dense_parity():
    """The 1-channel layer's shape — where reduction reorders once bit."""
    rng = np.random.default_rng(2)
    for op, matrix in parity_operators(rng):
        dense = rng.standard_normal((matrix.shape[0], 1))
        assert np.array_equal(op.matmul(dense), matrix @ dense)
        assert np.array_equal(op.matmul_t(dense), matrix.T @ dense)


def test_empty_operator():
    op = SparseOp.from_csr(sp.csr_matrix((3, 3)))
    dense = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(op.matmul(dense), np.zeros((3, 2)))
    assert np.array_equal(op.matmul_t(dense), np.zeros((3, 2)))


def test_csr_from_parts_matches_checked_constructor():
    rng = np.random.default_rng(4)
    matrix = build_batch([_example(rng, 12)]).norm_adj.tocsr()
    clone = csr_from_parts(
        matrix.data, matrix.indices, matrix.indptr, matrix.shape
    )
    assert clone.shape == matrix.shape
    assert clone.nnz == matrix.nnz
    assert np.array_equal(clone.toarray(), matrix.toarray())
    assert np.array_equal((clone.T @ np.eye(12 + 1)[:12]), (matrix.T @ np.eye(13)[:12]))


def test_as_sparse_op_passthrough_and_caching():
    rng = np.random.default_rng(5)
    matrix = build_batch([_example(rng, 9)]).norm_adj
    op = as_sparse_op(matrix)
    assert as_sparse_op(op) is op
    assert op.csr is op.csr  # cached


def test_graph_batch_operator_cached_and_preseeded():
    rng = np.random.default_rng(6)
    examples = [_example(rng, int(rng.integers(3, 20))) for _ in range(8)]
    batch = build_batch(examples)
    assert batch.operator is batch.operator  # one conversion per batch
    assembler = BatchAssembler(examples)
    assembled = assembler.assemble(np.arange(len(examples)))
    assert "operator" in assembled.__dict__  # pre-seeded, not rebuilt


# ---------------------------------------------------------------- gradients
def _num_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
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


@pytest.mark.parametrize("source", SOURCES)
def test_graph_conv_gradients(source):
    """Analytic spmm backward vs central differences, per operator source."""
    rng = np.random.default_rng(9)
    op, matrix = batch_operator(
        source,
        [_example(rng, 6), _example(rng, 9, "star"), _example(rng, 3, "empty")],
    )
    n_nodes = matrix.shape[0]
    h0 = rng.standard_normal((n_nodes, 4))
    w0 = rng.standard_normal((4, 3))
    seed_grad = rng.standard_normal((n_nodes, 3))

    h = Tensor(h0.copy(), requires_grad=True)
    w = Tensor(w0.copy(), requires_grad=True)
    out = graph_conv(op, h, w, workspace=Workspace())
    out.backward(seed_grad)

    def value(href=h0, wref=w0):
        z = np.tanh(matrix @ (href @ wref))
        return float((z * seed_grad).sum())

    num_h = _num_grad(lambda: value(), h0)
    num_w = _num_grad(lambda: value(), w0)
    np.testing.assert_allclose(h.grad, num_h, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(w.grad, num_w, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("source", SOURCES)
def test_graph_conv_backward_bit_matches_scipy_composition(source):
    """The fused kernel's gradients equal the unfused scipy chain, bitwise."""
    rng = np.random.default_rng(10)
    op, matrix = batch_operator(
        source, [_example(rng, 11), _example(rng, 17, "star")]
    )
    n_nodes = matrix.shape[0]
    h0 = rng.standard_normal((n_nodes, 5))
    w0 = rng.standard_normal((5, 2))
    seed_grad = rng.standard_normal((n_nodes, 2))

    h = Tensor(h0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    out = graph_conv(op, h, w, workspace=Workspace())
    out.backward(seed_grad)

    # reference: explicit composition with scipy kernels
    z = np.tanh(matrix @ (h0 @ w0))
    gt = seed_grad * (1.0 - z * z)
    ga = matrix.T @ gt
    assert np.array_equal(out.data, z)
    assert np.array_equal(w.grad, h0.T @ ga)
    assert np.array_equal(h.grad, ga @ w0.T)


def test_graph_conv_out_slice_destination():
    """Writing the activation into a strided buffer slice changes nothing."""
    rng = np.random.default_rng(11)
    batch = build_batch([_example(rng, 8), _example(rng, 5)])
    h0 = rng.standard_normal((batch.n_nodes, 4))
    w0 = rng.standard_normal((4, 3))
    h = Tensor(h0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    plain = graph_conv(batch.norm_adj, h, w)
    buffer = np.empty((batch.n_nodes, 7))
    sliced = graph_conv(batch.operator, Tensor(h0), Tensor(w0), out=buffer[:, 2:5])
    assert np.array_equal(plain.data, sliced.data)
    assert sliced.data.base is buffer


# ------------------------------------------------- forward workspace pieces
def test_workspace_resident_growth_and_reuse():
    ws = Workspace()
    a = ws.resident("x", (10, 4), np.float64)
    b = ws.resident("x", (8, 4), np.float64)
    assert b.base is a.base  # same slot, smaller lease
    c = ws.resident("x", (32, 4), np.float64)
    assert c.shape == (32, 4)
    assert ws.resident("y", (10, 4), np.float64).base is not c.base
    assert ws.resident("x", (10, 5), np.float64).shape == (10, 5)


def test_gather_stack_matches_gather_of_concat():
    rng = np.random.default_rng(12)
    tensors_a = [Tensor(rng.standard_normal((9, c)), requires_grad=True) for c in (3, 2, 1)]
    tensors_b = [Tensor(t.data.copy(), requires_grad=True) for t in tensors_a]
    indices = np.array([0, 8, -1, 4, 2, -1, 7])
    buffer = np.empty((len(indices), 6))

    fused = gather_stack(tensors_a, indices, buffer)
    reference = concat(tensors_b, axis=1).gather_rows(indices, unique=True)
    assert np.array_equal(fused.data, reference.data)

    seed_grad = rng.standard_normal(fused.shape)
    fused.backward(seed_grad)
    reference.backward(seed_grad.copy())
    for ta, tb in zip(tensors_a, tensors_b):
        assert np.array_equal(ta.grad, tb.grad)


def test_stack_columns_matches_concat_gradient():
    rng = np.random.default_rng(13)
    parts = [Tensor(rng.standard_normal((6, c)), requires_grad=True) for c in (2, 3)]
    buffer = np.concatenate([p.data for p in parts], axis=1)
    stacked = stack_columns(parts, buffer)
    ref_parts = [Tensor(p.data.copy(), requires_grad=True) for p in parts]
    reference = concat(ref_parts, axis=1)
    assert np.array_equal(stacked.data, reference.data)
    seed_grad = rng.standard_normal(stacked.shape)
    stacked.backward(seed_grad)
    reference.backward(seed_grad.copy())
    for pa, pb in zip(parts, ref_parts):
        assert np.array_equal(pa.grad, pb.grad)
    with pytest.raises(ValueError):
        stack_columns(parts, np.empty((6, 9)))
