"""DGCNN behaviour: shapes, k selection, and learnability on a toy task."""

import numpy as np
import pytest

from repro.gnn import DGCNN, GraphExample, build_batch, choose_sortpool_k
from repro.nn import Adam


def make_example(rng, kind, width=4, n=12):
    """Dense graphs (label 1) vs sparse rings (label 0).

    Node features are degree one-hots — structural features, like the DRNL
    labels the real pipeline uses (constant features would wash out under
    the row-normalized operator)."""
    if kind == 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        edges = np.array([p for p, k in zip(pairs, keep) if k] or [(0, 1)])
    else:
        edges = np.array([(i, (i + 1) % n) for i in range(n)])
    degree = np.zeros(n, dtype=int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    features = np.zeros((n, width))
    features[np.arange(n), np.minimum(degree // 2, width - 1)] = 1.0
    return GraphExample(n, edges, features, label=kind)


def test_choose_sortpool_k():
    assert choose_sortpool_k([5, 6, 7, 100]) == 10  # clamped to minimum
    sizes = list(range(1, 101))
    assert choose_sortpool_k(sizes, percentile=0.6) == 60
    with pytest.raises(ValueError):
        choose_sortpool_k([])
    with pytest.raises(ValueError):
        choose_sortpool_k([5], percentile=0.0)


def test_k_minimum_enforced():
    with pytest.raises(ValueError):
        DGCNN(in_features=4, k=5)


def test_forward_shapes():
    rng = np.random.default_rng(0)
    examples = [make_example(rng, i % 2) for i in range(6)]
    batch = build_batch(examples)
    model = DGCNN(in_features=4, k=10, seed=1)
    logits = model(batch)
    assert logits.shape == (6, 2)
    probs = model.predict_proba(batch)
    assert probs.shape == (6,)
    assert ((probs >= 0) & (probs <= 1)).all()


def test_forward_handles_graphs_smaller_than_k():
    rng = np.random.default_rng(1)
    examples = [make_example(rng, 1, n=5), make_example(rng, 0, n=30)]
    batch = build_batch(examples)
    model = DGCNN(in_features=4, k=12, seed=2)
    assert model(batch).shape == (2, 2)


def test_loss_rejects_unlabeled():
    rng = np.random.default_rng(2)
    ex = make_example(rng, 1)
    unlabeled = GraphExample(ex.n_nodes, ex.edges, ex.features, label=-1)
    model = DGCNN(in_features=4, k=10)
    with pytest.raises(ValueError):
        model.loss(build_batch([unlabeled]))


def test_predict_proba_restores_training_mode():
    model = DGCNN(in_features=4, k=10)
    model.train()
    rng = np.random.default_rng(3)
    batch = build_batch([make_example(rng, 1)])
    model.predict_proba(batch)
    assert model.training
    assert model.dropout.training


def test_dgcnn_learns_toy_separation():
    """Dense vs ring graphs are separable from structure alone."""
    rng = np.random.default_rng(4)
    train = [make_example(rng, i % 2) for i in range(40)]
    model = DGCNN(in_features=4, k=10, seed=5)
    opt = Adam(model.parameters(), lr=3e-3)
    for _ in range(40):
        for start in range(0, len(train), 10):
            batch = build_batch(train[start : start + 10])
            opt.zero_grad()
            loss = model.loss(batch)
            loss.backward()
            opt.step()
    test = [make_example(rng, i % 2) for i in range(20)]
    probs = model.predict_proba(build_batch(test))
    predicted = (probs > 0.5).astype(int)
    labels = np.array([e.label for e in test])
    accuracy = (predicted == labels).mean()
    assert accuracy >= 0.85


def test_deterministic_given_seed():
    rng = np.random.default_rng(6)
    batch = build_batch([make_example(rng, 1), make_example(rng, 0)])
    a = DGCNN(in_features=4, k=10, seed=7)
    b = DGCNN(in_features=4, k=10, seed=7)
    np.testing.assert_array_equal(a(batch).data, b(batch).data)


def test_from_state_restores_weights_and_checks_shapes():
    trained = DGCNN(in_features=4, k=10, seed=3)
    state = trained.state_dict()
    rebuilt = DGCNN.from_state(4, 10, state)
    assert not rebuilt.training
    for ours, theirs in zip(rebuilt.state_dict(), state):
        np.testing.assert_array_equal(ours, theirs)
    with pytest.raises(ValueError, match="shape mismatch"):
        DGCNN.from_state(5, 10, state)
    with pytest.raises(ValueError, match="arrays"):
        DGCNN.from_state(4, 10, state[:-1])
