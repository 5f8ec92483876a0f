"""The validation ROC AUC: numpy average-tie ranks equal to scipy's, and a
training run that never imports ``scipy.stats``."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import repro
from repro.linkpred.trainer import _roc_auc


def scipy_auc(labels, scores):
    """The rank-sum formula over ``scipy.stats.rankdata``."""
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores)
    return (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )


def tie_heavy(pool_size):
    """Scores drawn from a tiny pool: integers cast through float32 to
    float64 (the validation path's casts), signed zeros, huge values."""
    return st.one_of(
        st.integers(-pool_size, pool_size).map(
            lambda v: float(np.float64(np.float32(v / 4)))
        ),
        st.sampled_from([0.0, -0.0, 1e300, -1e300]),
    )


@st.composite
def labelled_scores(draw):
    size = draw(st.integers(2, 60))
    labels = draw(
        st.lists(st.sampled_from([0, 1]), min_size=size, max_size=size)
    )
    labels[0], labels[-1] = 0, 1  # both classes present
    pool_size = draw(st.integers(0, 6))
    scores = draw(st.lists(tie_heavy(pool_size), min_size=size, max_size=size))
    return np.array(labels), np.array(scores, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(labelled_scores())
def test_roc_auc_equals_scipy_rank_formula(case):
    labels, scores = case
    assert _roc_auc(labels, scores) == scipy_auc(labels, scores)


@pytest.mark.parametrize("size", [2, 7, 50])
def test_roc_auc_all_scores_equal(size):
    labels = np.arange(size) % 2
    scores = np.full(size, 0.25)
    assert _roc_auc(labels, scores) == scipy_auc(labels, scores) == 0.5


def test_roc_auc_float32_scores():
    labels = np.array([0, 1, 1, 0, 1, 0])
    scores = np.array([0.1, 0.7, 0.7, 0.3, 0.1, 0.7], dtype=np.float32)
    assert _roc_auc(labels, scores) == scipy_auc(labels, scores)


def test_roc_auc_nan_score_is_nan():
    labels = np.array([0, 1, 0, 1])
    assert np.isnan(_roc_auc(labels, np.array([0.1, np.nan, 0.3, 0.9])))


@pytest.mark.parametrize("label", [0, 1])
def test_roc_auc_single_class_is_nan(label):
    labels = np.full(5, label)
    assert np.isnan(_roc_auc(labels, np.linspace(0.0, 1.0, 5)))


FIT_WITHOUT_SCIPY_STATS = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.gnn import GraphExample
    from repro.linkpred import Trainer, TrainConfig
    from repro.linkpred.dataset import LinkDataset

    def example(i):
        n = 5 + i % 3
        edges = np.array([(j, (j + 1 + i % 2) % n) for j in range(n)])
        features = np.zeros((n, 3))
        features[np.arange(n), i % 3] = 1.0
        return GraphExample(n, edges, features, label=i % 2)

    train = [example(i) for i in range(8)]
    dataset = LinkDataset(
        train=train,
        validation=[example(i) for i in range(8, 12)],
        max_label=1,
        feature_width=3,
        h=1,
        subgraph_sizes=[e.n_nodes for e in train],
    )
    _, history = Trainer(dataset, TrainConfig(epochs=2, batch_size=4)).fit()
    assert not np.isnan(history.val_auc).any(), history.val_auc
    assert "scipy.stats" not in sys.modules, "training imported scipy.stats"
    """
)


def test_fit_never_imports_scipy_stats():
    """Importing ``scipy.stats`` costs ~0.5 s in every cold process; the
    validation AUC must not bring it back."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FIT_WITHOUT_SCIPY_STATS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
