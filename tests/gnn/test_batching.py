"""Tests for graph batching, adjacency normalization, and the cached
batch-construction layer (BatchAssembler)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    BatchAssembler,
    GraphExample,
    build_batch,
    normalized_adjacency,
)
from repro.gnn import batching
from repro.gnn.batching import _CHUNK_EXAMPLES, normalized_blocks
from repro.nn import default_dtype, dtype_scope


def triangle(label=1, width=3):
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    return GraphExample(3, edges, np.ones((3, width)), label=label)


def path(n=4, label=0, width=3):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return GraphExample(n, edges, np.ones((n, width)), label=label)


def test_normalized_adjacency_rows_sum_to_one():
    adj = normalized_adjacency(3, np.array([[0, 1], [1, 2]]))
    np.testing.assert_allclose(np.asarray(adj.sum(axis=1)).ravel(), 1.0)


def test_normalized_adjacency_includes_self_loops():
    adj = normalized_adjacency(2, np.array([[0, 1]]))
    dense = adj.toarray()
    assert dense[0, 0] > 0 and dense[1, 1] > 0
    np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_handles_isolated_nodes():
    adj = normalized_adjacency(3, np.empty((0, 2)))
    np.testing.assert_allclose(adj.toarray(), np.eye(3))


def test_duplicate_edges_collapse():
    adj = normalized_adjacency(2, np.array([[0, 1], [0, 1], [1, 0]]))
    np.testing.assert_allclose(adj.toarray(), [[0.5, 0.5], [0.5, 0.5]])


def test_build_batch_block_structure():
    batch = build_batch([triangle(), path()])
    assert batch.n_graphs == 2
    assert batch.features.shape == (7, 3)
    assert list(batch.node_offsets) == [0, 3, 7]
    dense = batch.norm_adj.toarray()
    # Off-diagonal blocks are zero.
    assert not dense[:3, 3:].any()
    assert not dense[3:, :3].any()
    np.testing.assert_array_equal(batch.labels, [1, 0])
    assert batch.graph_slice(1) == slice(3, 7)


def test_build_batch_validation():
    with pytest.raises(ValueError):
        build_batch([])
    with pytest.raises(ValueError):
        build_batch([triangle(width=3), triangle(width=4)])


def test_graph_example_validation():
    with pytest.raises(ValueError):
        GraphExample(2, np.array([[0, 5]]), np.ones((2, 3)))
    with pytest.raises(ValueError):
        GraphExample(2, np.empty((0, 2)), np.ones((3, 3)))


def test_batch_respects_runtime_dtype():
    batch = build_batch([triangle(), path()])
    assert batch.features.dtype == default_dtype()
    assert batch.norm_adj.dtype == default_dtype()


def test_sortpool_order_bases():
    batch = build_batch([triangle(), path()])
    np.testing.assert_array_equal(batch.graph_ids, [0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(
        batch.segment_positions, [0, 1, 2, 0, 1, 2, 3]
    )
    assert batch.n_nodes == 7


def assert_same_csr(a, b):
    """Raw CSR arrays equal as stored — no ``sort_indices`` normalization."""
    assert a.shape == b.shape
    assert a.dtype == b.dtype == default_dtype()
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


def test_batch_assembler_matches_build_batch():
    examples = [triangle(), path(), triangle(label=0), path(n=6, label=1)]
    assembler = BatchAssembler(examples)
    assert len(assembler) == 4
    for order in ([2, 0, 3], [0, 1, 2, 3], [3], [1, 1, 0]):
        assembled = assembler.assemble(np.array(order))
        reference = build_batch([examples[i] for i in order])
        np.testing.assert_array_equal(
            assembled.node_offsets, reference.node_offsets
        )
        np.testing.assert_array_equal(assembled.labels, reference.labels)
        np.testing.assert_array_equal(assembled.features, reference.features)
        assert assembled.features.dtype == reference.features.dtype
        assert_same_csr(assembled.norm_adj, reference.norm_adj)


def reference_adjacency(n_nodes, edges):
    """The per-example coo -> csr -> ``+ I`` construction the vectorized
    builder replaced, kept here as the reference."""
    edges = np.reshape(edges, (-1, 2))
    if edges.size:
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        adj = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n_nodes, n_nodes)
        ).tocsr()
        adj.data[:] = 1.0
    else:
        adj = sp.csr_matrix((n_nodes, n_nodes))
    adj = adj + sp.identity(n_nodes, format="csr")
    degree = np.asarray(adj.sum(axis=1)).ravel()
    adj.data /= np.repeat(degree, np.diff(adj.indptr))
    return adj.astype(default_dtype(), copy=False)


def assert_matches_reference(examples):
    """Every path through the builder equals the per-example reference."""
    references = [reference_adjacency(e.n_nodes, e.edges) for e in examples]
    for example, reference in zip(examples, references):
        assert_same_csr(
            normalized_adjacency(example.n_nodes, example.edges), reference
        )
    assembler = BatchAssembler(examples)
    for i, reference in enumerate(references):
        assert assembler._data[i].dtype == default_dtype()
        np.testing.assert_array_equal(assembler._data[i], reference.data)
        np.testing.assert_array_equal(assembler._indices[i], reference.indices)
        np.testing.assert_array_equal(
            assembler._indptr_tail[i], reference.indptr[1:]
        )
        assert assembler._nnz[i] == reference.nnz
    order = np.arange(len(examples))[::-1]
    stitched = sp.block_diag([references[i] for i in order], format="csr")
    assert_same_csr(assembler.assemble(order).norm_adj, stitched)
    assert_same_csr(
        build_batch([examples[i] for i in order]).norm_adj, stitched
    )


def graph(n_nodes, edges):
    return GraphExample(n_nodes, np.asarray(edges), np.ones((n_nodes, 2)))


OPERATOR_CASES = {
    "self-loop": [graph(3, [[1, 1], [0, 1]]), graph(2, [[0, 0], [0, 0]])],
    "duplicate-and-reversed": [graph(3, [[0, 1], [1, 0], [0, 1], [2, 1]])],
    "no-edges-flat": [
        graph(3, np.empty((0,), dtype=np.int64)),
        triangle(width=2),
    ],
    "no-edges-pairs": [graph(2, np.empty((0, 2))), path(width=2)],
    "one-node": [
        graph(1, np.empty((0, 2), dtype=np.int64)),
        graph(1, [[0, 0]]),
    ],
    "int32-edges": [graph(4, np.array([[0, 3], [3, 2]], dtype=np.int32))],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_operator_builder_matches_reference(case, dtype):
    with dtype_scope(dtype):
        assert_matches_reference(OPERATOR_CASES[case])


def test_self_loop_weighs_two_on_the_diagonal():
    # (1, 1) collapses to 1 before + I: row 1 is [1, 2] / 3.
    dense = normalized_adjacency(2, np.array([[1, 1], [0, 1], [1, 1]]))
    np.testing.assert_allclose(dense.toarray(), [[0.5, 0.5], [1 / 3, 2 / 3]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_empty_batch_assembler(dtype):
    with dtype_scope(dtype):
        assembler = BatchAssembler([])
        assert len(assembler) == 0
        assert assembler._nnz.size == 0
        with pytest.raises(ValueError):
            assembler.assemble(np.array([], dtype=np.int64))


@pytest.fixture(scope="module")
def c2670_split():
    from repro.benchgen import load_benchmark
    from repro.linkpred import (
        build_link_dataset,
        extract_attack_graph,
        sample_links,
    )
    from repro.locking import lock_dmux

    locked = lock_dmux(load_benchmark("c2670", scale=0.3), key_size=16, seed=0)
    graph = extract_attack_graph(locked.circuit)
    dataset = build_link_dataset(graph, sample_links(graph, seed=0), h=3)
    return dataset.train


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_operator_builder_matches_reference_on_c2670(c2670_split, dtype):
    with dtype_scope(dtype):
        assert_matches_reference(c2670_split)


def test_batch_assembler_validation():
    with pytest.raises(ValueError):
        BatchAssembler([triangle(width=3), triangle(width=4)])
    with pytest.raises(ValueError):
        BatchAssembler([triangle()]).assemble(np.array([], dtype=np.int64))


def _mixed_graphs(count, seed=0):
    """*count* small graphs cycling through edgeless, self-loop-bearing
    and random ones."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(1, 8))
        if i % 3 == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        else:
            edges = rng.integers(0, n, size=(int(rng.integers(1, 12)), 2))
            if i % 3 == 1:
                edges = np.vstack([edges, [[n - 1, n - 1]]])
        graphs.append(graph(n, edges))
    return graphs


@pytest.mark.parametrize(
    "count", [1, _CHUNK_EXAMPLES, _CHUNK_EXAMPLES + 1],
    ids=["one", "one-chunk", "one-chunk-plus-one"],
)
def test_chunked_operators_equal_one_pass_build(count):
    """The assembler's run-by-run build equals one normalized_blocks call
    over the whole split, byte for byte, with int32 index arrays."""
    examples = _mixed_graphs(count)
    data, indices, indptr = normalized_blocks(
        [e.n_nodes for e in examples], [e.edges for e in examples]
    )
    assert indices.dtype == indptr.dtype == np.int32
    assembler = BatchAssembler(examples)
    node_start = 0
    for i, example in enumerate(examples):
        a, b = indptr[node_start], indptr[node_start + example.n_nodes]
        assert assembler._data[i].tobytes() == data[a:b].tobytes()
        assert assembler._indices[i].dtype == np.int32
        assert assembler._indices[i].tobytes() == (
            indices[a:b] - node_start
        ).astype(np.int32).tobytes()
        assert assembler._indptr_tail[i].dtype == np.int32
        assert assembler._indptr_tail[i].tobytes() == (
            indptr[node_start + 1 : node_start + example.n_nodes + 1] - a
        ).astype(np.int32).tobytes()
        node_start += example.n_nodes

    def assert_same_bytes(op, *arrays):
        for got, want in zip((op.data, op.indices, op.indptr), arrays):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    for reuse in (False, True):
        whole = assembler.assemble(np.arange(count), reuse_buffers=reuse)
        assert_same_bytes(whole.operator, data, indices, indptr)
    order = np.random.default_rng(1).permutation(count)[:50]
    reference = build_batch([examples[i] for i in order]).operator
    assert_same_bytes(
        assembler.assemble(order).operator,
        reference.data, reference.indices, reference.indptr,
    )


def test_assembler_builds_operators_one_run_at_a_time(monkeypatch):
    """No normalized_blocks call gets more than one run of examples."""
    calls = []

    def counted(sizes, edges):
        calls.append(len(sizes))
        return normalized_blocks(sizes, edges)

    monkeypatch.setattr(batching, "normalized_blocks", counted)
    BatchAssembler(_mixed_graphs(2 * _CHUNK_EXAMPLES + 1))
    assert calls == [_CHUNK_EXAMPLES, _CHUNK_EXAMPLES, 1]
