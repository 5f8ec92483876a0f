"""Tests for link sampling, dataset assembly, and the trainer."""

import numpy as np
import pytest

from repro.benchgen import random_netlist
from repro.errors import TrainingError
from repro.linkpred import (
    TrainConfig,
    Trainer,
    build_link_dataset,
    build_target_examples,
    extract_attack_graph,
    iter_target_examples,
    sample_links,
    score_examples,
)
from repro.locking import lock_dmux


def graph_for(seed=0, n_gates=100, key_size=6):
    base = random_netlist("base", 10, 5, n_gates, seed=seed)
    locked = lock_dmux(base, key_size=key_size, seed=seed)
    return extract_attack_graph(locked.circuit)


# ---------------------------------------------------------------- sampling
def test_sample_is_balanced_and_labelled():
    graph = graph_for()
    sample = sample_links(graph, seed=1)
    links = sample.train + sample.validation
    positives = [l for l in links if l[2] == 1]
    negatives = [l for l in links if l[2] == 0]
    assert abs(len(positives) - len(negatives)) <= 1
    for u, v, _ in positives:
        assert graph.has_edge(u, v)
    for u, v, _ in negatives:
        assert not graph.has_edge(u, v)


def test_negatives_exclude_target_candidates():
    graph = graph_for(seed=2)
    forbidden = set()
    for t in graph.targets:
        forbidden.add(frozenset((t.cand_d0, t.load)))
        forbidden.add(frozenset((t.cand_d1, t.load)))
    sample = sample_links(graph, seed=2)
    for u, v, label in sample.train + sample.validation:
        if label == 0:
            assert frozenset((u, v)) not in forbidden


def test_max_links_cap():
    graph = graph_for(seed=3, n_gates=200)
    sample = sample_links(graph, max_links=40, seed=3)
    assert sample.n_links <= 40


def test_val_split_fraction():
    graph = graph_for(seed=4)
    sample = sample_links(graph, val_fraction=0.2, seed=4)
    total = sample.n_links
    assert len(sample.validation) == int(total * 0.2)


def test_sampling_determinism():
    graph = graph_for(seed=5)
    a = sample_links(graph, seed=7)
    b = sample_links(graph, seed=7)
    assert a.train == b.train and a.validation == b.validation


def test_bad_val_fraction():
    graph = graph_for(seed=6)
    with pytest.raises(TrainingError):
        sample_links(graph, val_fraction=1.0)


# ----------------------------------------------------------------- dataset
def test_dataset_shapes_and_split():
    graph = graph_for(seed=8)
    sample = sample_links(graph, seed=8)
    ds = build_link_dataset(graph, sample, h=2)
    assert len(ds.train) == len(sample.train)
    assert len(ds.validation) == len(sample.validation)
    widths = {e.feature_width for e in ds.train + ds.validation}
    assert widths == {ds.feature_width}
    # Index-coded: one column per block (gate type, DRNL, degree).
    assert {e.features.shape[1] for e in ds.train + ds.validation} == {3}
    assert all(e.index_coded for e in ds.train + ds.validation)
    assert all(e.label in (0, 1) for e in ds.train)
    assert len(ds.subgraph_sizes) == len(ds.train)


def test_feature_width_composition():
    graph = graph_for(seed=9)
    sample = sample_links(graph, seed=9)
    full = build_link_dataset(graph, sample, h=2)
    no_degree = build_link_dataset(graph, sample, h=2, use_degree=False)
    assert full.feature_width == 8 + (full.max_label + 1) + 8
    assert no_degree.feature_width == full.feature_width - 8


def test_target_examples_two_per_mux():
    graph = graph_for(seed=10, key_size=5)
    sample = sample_links(graph, seed=10)
    ds = build_link_dataset(graph, sample, h=2)
    targets = build_target_examples(graph, ds)
    assert len(targets) == 2 * len(graph.targets)
    assert all(t.example.label == -1 for t in targets)
    assert {t.select_value for t in targets} == {0, 1}
    widths = {t.example.feature_width for t in targets}
    assert widths == {ds.feature_width}
    assert {t.example.features.shape[1] for t in targets} == {3}


# ----------------------------------------------------------------- trainer
def test_training_improves_and_restores_best():
    graph = graph_for(seed=11)
    sample = sample_links(graph, seed=11)
    ds = build_link_dataset(graph, sample, h=2)
    model, history = Trainer(
        ds, TrainConfig(epochs=8, learning_rate=1e-3, seed=0)
    ).fit()
    assert len(history.train_loss) == 8
    assert len(history.val_loss) == 8
    assert history.best_epoch >= 0
    assert history.best_val_loss <= min(history.val_loss) + 1e-12
    assert not model.training  # returned in eval mode


def test_score_examples_shape_and_range():
    graph = graph_for(seed=12)
    sample = sample_links(graph, seed=12)
    ds = build_link_dataset(graph, sample, h=2)
    model, _ = Trainer(ds, TrainConfig(epochs=2, seed=0)).fit()
    targets = build_target_examples(graph, ds)
    scores = score_examples(model, [t.example for t in targets])
    assert scores.shape == (len(targets),)
    assert ((scores >= 0) & (scores <= 1)).all()
    assert score_examples(model, []).shape == (0,)


def test_empty_training_split_rejected():
    graph = graph_for(seed=13)
    sample = sample_links(graph, seed=13)
    ds = build_link_dataset(graph, sample, h=1)
    ds.train = []
    with pytest.raises(TrainingError):
        Trainer(ds).fit()


def test_training_determinism():
    graph = graph_for(seed=14)
    sample = sample_links(graph, seed=14)
    ds = build_link_dataset(graph, sample, h=1)
    m1, h1 = Trainer(ds, TrainConfig(epochs=3, seed=5)).fit()
    m2, h2 = Trainer(ds, TrainConfig(epochs=3, seed=5)).fit()
    assert h1.train_loss == h2.train_loss
    np.testing.assert_array_equal(
        m1.state_dict()[0], m2.state_dict()[0]
    )


def test_iter_target_examples_chunking_matches_build():
    """Chunked lazy extraction yields exactly build_target_examples."""
    graph = graph_for(seed=14, key_size=6)
    sample = sample_links(graph, seed=14)
    ds = build_link_dataset(graph, sample, h=2)
    reference = build_target_examples(graph, ds)
    for chunk_size in (1, 3, 4, 999):
        chunks = list(iter_target_examples(graph, ds, chunk_size=chunk_size))
        flat = [t for chunk in chunks for t in chunk]
        assert len(flat) == len(reference)
        if chunk_size == 3:  # rounded up to even: MUX pairs stay together
            assert all(len(c) % 2 == 0 for c in chunks[:-1])
        for a, b in zip(flat, reference):
            assert a.target == b.target
            assert a.select_value == b.select_value
            assert a.example.n_nodes == b.example.n_nodes
            assert np.array_equal(a.example.edges, b.example.edges)
            # The index arrays themselves: same columns, same dtype.
            assert a.example.index_coded and b.example.index_coded
            assert a.example.features.dtype == b.example.features.dtype
            assert a.example.feature_width == b.example.feature_width
            assert np.array_equal(a.example.features, b.example.features)
    with pytest.raises(ValueError):
        next(iter_target_examples(graph, ds, chunk_size=0))
