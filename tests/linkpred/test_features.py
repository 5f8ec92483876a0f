"""Index-coded node features: exact equality with the dense one-hot
construction, through featurization, batching and the memory layout."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.benchgen import random_netlist
from repro.gnn import BatchAssembler, GraphExample, build_batch, onehot_rows
from repro.linkpred import (
    build_link_dataset,
    extract_attack_graph,
    iter_target_examples,
    sample_links,
)
from repro.linkpred.dataset import (
    _MAX_DEGREE_FEATURE,
    _feature_width,
    _features_batch,
)
from repro.linkpred.subgraph import extract_enclosing_subgraphs
from repro.locking import lock_dmux
from repro.netlist import NUM_GATE_FEATURES
from repro.nn import default_dtype, dtype_scope

FLAGS = list(itertools.product((True, False), repeat=3))


def dense_reference(subgraphs, max_label, use_drnl, use_gate_types, use_degree):
    """The float64 one-hot construction the index coding replaced."""
    total = sum(s.n_nodes for s in subgraphs)
    width = (
        (NUM_GATE_FEATURES if use_gate_types else 0)
        + (max_label + 1 if use_drnl else 0)
        + (_MAX_DEGREE_FEATURE if use_degree else 0)
    )
    if width == 0:
        return np.ones((total, 1))
    stacked = np.zeros((total, width))
    rows = np.arange(total)
    col = 0
    if use_gate_types:
        stacked[rows, np.concatenate([s.gate_type_ids for s in subgraphs])] = 1.0
        col += NUM_GATE_FEATURES
    if use_drnl:
        labels = np.concatenate([s.labels for s in subgraphs])
        stacked[rows, col + np.minimum(labels, max_label)] = 1.0
        col += max_label + 1
    if use_degree:
        degrees = np.concatenate([s.degrees for s in subgraphs])
        stacked[rows, col + np.minimum(degrees, _MAX_DEGREE_FEATURE - 1)] = 1.0
    return stacked


def densify(example):
    """An index-coded example's float64 node-information matrix."""
    return onehot_rows(
        example.features, np.empty((example.n_nodes, example.feature_width))
    )


def as_examples(subgraphs, columns, width):
    return [
        GraphExample(s.n_nodes, s.edges, cols, label=i % 2, feature_width=width)
        for i, (s, cols) in enumerate(zip(subgraphs, columns))
    ]


@pytest.fixture(scope="module")
def material():
    base = random_netlist("base", 10, 5, 120, seed=21)
    graph = extract_attack_graph(lock_dmux(base, key_size=6, seed=21).circuit)
    sample = sample_links(graph, seed=21)
    pairs = [(u, v) for u, v, _ in sample.train + sample.validation]
    subgraphs = extract_enclosing_subgraphs(graph, pairs, 2)
    return graph, sample, subgraphs


@pytest.mark.parametrize("use_drnl,use_gate_types,use_degree", FLAGS)
def test_columns_equal_nonzero_of_dense(material, use_drnl, use_gate_types, use_degree):
    _, _, subgraphs = material
    max_label = max(int(s.labels.max(initial=0)) for s in subgraphs)
    flags = (use_drnl, use_gate_types, use_degree)
    columns = _features_batch(subgraphs, max_label, *flags)
    dense = dense_reference(subgraphs, max_label, *flags)
    width = _feature_width(max_label, *flags)
    assert dense.shape[1] == width
    stacked = np.concatenate(columns)
    blocks = max(sum(flags), 1)
    assert stacked.shape == (dense.shape[0], blocks)
    assert stacked.dtype == np.min_scalar_type(width)
    # Ascending within a row, exactly the nonzero columns of the dense rows.
    np.testing.assert_array_equal(
        stacked, np.nonzero(dense)[1].reshape(-1, blocks)
    )
    examples = as_examples(subgraphs, columns, width)
    np.testing.assert_array_equal(
        np.concatenate([densify(e) for e in examples]), dense
    )


def test_all_blocks_off_is_one_zero_column(material):
    _, _, subgraphs = material
    columns = _features_batch(subgraphs, 3, False, False, False)
    assert all(c.shape == (s.n_nodes, 1) for c, s in zip(columns, subgraphs))
    assert not np.concatenate(columns).any()
    batch = build_batch(as_examples(subgraphs[:5], columns[:5], 1))
    np.testing.assert_array_equal(batch.features, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("use_drnl,use_gate_types,use_degree", FLAGS)
def test_batch_features_equal_dense_reference(
    material, dtype, use_drnl, use_gate_types, use_degree
):
    _, _, subgraphs = material
    max_label = max(int(s.labels.max(initial=0)) for s in subgraphs)
    flags = (use_drnl, use_gate_types, use_degree)
    width = _feature_width(max_label, *flags)
    examples = as_examples(
        subgraphs, _features_batch(subgraphs, max_label, *flags), width
    )
    dense = [
        dense_reference([s], max_label, *flags) for s in subgraphs
    ]
    blocks = max(sum(flags), 1)
    order = np.random.default_rng(3).permutation(len(examples))[:40]
    with dtype_scope(dtype):
        expected = np.concatenate([dense[i] for i in order]).astype(dtype)
        assembler = BatchAssembler(examples)
        for batch in (
            build_batch([examples[i] for i in order]),
            assembler.assemble(order),
            assembler.assemble(order, reuse_buffers=True),
        ):
            assert batch.features.dtype == default_dtype()
            np.testing.assert_array_equal(batch.features, expected)
        onehot = assembler.assemble(order).feature_onehot
        np.testing.assert_array_equal(
            onehot, np.nonzero(expected)[1].reshape(-1, blocks)
        )
        # Validation and scoring batches keep the GEMM path.
        assert build_batch(examples[:3]).feature_onehot is None


def test_target_drnl_clamps_at_max_label(material):
    graph, sample, _ = material
    dataset = build_link_dataset(graph, sample, h=2)
    # Training saw labels up to ``max_label``; shrink it so target labels
    # exceed it and must land in the "far" bucket.
    max_label = 1
    clamped = dataclasses.replace(
        dataset,
        max_label=max_label,
        feature_width=_feature_width(max_label, True, True, True),
    )
    targets = [t for chunk in iter_target_examples(graph, clamped) for t in chunk]
    pairs = [(d, l) for t in graph.targets for d, l, _ in t.candidates()]
    subgraphs = extract_enclosing_subgraphs(graph, pairs, 2)
    assert max(int(s.labels.max()) for s in subgraphs) > max_label
    for target, sub in zip(targets, subgraphs):
        drnl = target.example.features[:, 1]
        np.testing.assert_array_equal(
            drnl, NUM_GATE_FEATURES + np.minimum(sub.labels, max_label)
        )
        np.testing.assert_array_equal(
            densify(target.example),
            dense_reference([sub], max_label, True, True, True),
        )


def test_width_over_255_uses_uint16(material):
    _, _, subgraphs = material
    max_label = 300
    width = _feature_width(max_label, True, True, True)
    assert width > 255
    columns = _features_batch(subgraphs, max_label)
    assert columns[0].dtype == np.uint16
    dense = dense_reference(subgraphs, max_label, True, True, True)
    np.testing.assert_array_equal(
        np.concatenate(columns), np.nonzero(dense)[1].reshape(-1, 3)
    )
    examples = as_examples(subgraphs, columns, width)
    with dtype_scope(np.float64):
        np.testing.assert_array_equal(build_batch(examples).features, dense)
        np.testing.assert_array_equal(
            BatchAssembler(examples).assemble(np.arange(len(examples))).features,
            dense,
        )


def test_example_and_batch_validation():
    edges = np.array([[0, 1]])
    cols = np.array([[0, 9], [1, 8]], dtype=np.uint8)
    with pytest.raises(ValueError):
        GraphExample(2, edges, cols)  # index-coded needs a width
    with pytest.raises(ValueError):
        GraphExample(2, edges, np.ones((2, 3)), feature_width=4)
    coded = GraphExample(2, edges, cols, feature_width=10)
    rows = GraphExample(2, edges, densify(coded))
    assert rows.feature_width == 10 and not rows.index_coded
    with pytest.raises(ValueError):
        build_batch([coded, rows])  # mixed coding
    with pytest.raises(ValueError):
        BatchAssembler([coded, rows])
    narrow = GraphExample(2, edges, cols, feature_width=9)  # column 9 too wide
    with pytest.raises(ValueError):
        build_batch([narrow])
    with pytest.raises(ValueError):
        BatchAssembler([narrow])


# ------------------------------------------------------------------ memory
def _arrays(value):
    """Every ndarray reachable from *value* through lists and ``.base``."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, np.ndarray):
        while value is not None:
            yield value
            value = value.base if isinstance(value.base, np.ndarray) else None


def test_feature_storage_is_index_coded(material):
    graph, sample, _ = material
    dataset = build_link_dataset(graph, sample, h=2)
    examples = dataset.train + dataset.validation
    blocks = 3
    itemsize = np.dtype(np.uint8).itemsize
    n_nodes = sum(e.n_nodes for e in examples)
    # The bytes behind every example's features, each buffer counted once.
    buffers = {id(a): a for e in examples for a in _arrays(e.features)}
    roots = [a for a in buffers.values() if a.base is None]
    assert sum(a.nbytes for a in roots) <= n_nodes * blocks * itemsize
    assert all(e.features.dtype == np.uint8 for e in examples)

    assembler = BatchAssembler(dataset.train)
    assembler.assemble(np.arange(len(dataset.train)), reuse_buffers=False)
    train_nodes = int(assembler.sizes.sum())
    dense_size = train_nodes * dataset.feature_width
    for slot in BatchAssembler.__slots__:
        for array in _arrays(getattr(assembler, slot)):
            if array.dtype.kind == "f":
                assert array.size < dense_size, slot
