"""SEAL-style link-prediction pipeline over locked netlists.

The data path is fully vectorized: :class:`AttackGraph` stores its
adjacency as flat CSR arrays, :func:`extract_enclosing_subgraphs` expands
all BFS frontiers of a batch of target pairs together over those arrays
(reusing distance maps across pairs that share an endpoint), and
:func:`build_link_dataset` featurizes whole splits array-at-a-time.
"""

from repro.linkpred.dataset import (
    LinkDataset,
    TargetExample,
    build_link_dataset,
    build_target_examples,
    iter_target_examples,
)
from repro.linkpred.graph import AttackGraph, MuxTarget, extract_attack_graph
from repro.linkpred.sampling import LinkSample, sample_links
from repro.linkpred.subgraph import (
    EnclosingSubgraph,
    drnl_label,
    drnl_label_array,
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
)
from repro.linkpred.trainer import (
    TrainConfig,
    Trainer,
    TrainHistory,
    make_trainer,
    score_examples,
    score_stream,
    train_link_predictor,
)

__all__ = [
    "AttackGraph",
    "MuxTarget",
    "extract_attack_graph",
    "EnclosingSubgraph",
    "drnl_label",
    "drnl_label_array",
    "extract_enclosing_subgraph",
    "extract_enclosing_subgraphs",
    "LinkSample",
    "sample_links",
    "LinkDataset",
    "TargetExample",
    "build_link_dataset",
    "build_target_examples",
    "iter_target_examples",
    "TrainConfig",
    "Trainer",
    "make_trainer",
    "TrainHistory",
    "train_link_predictor",
    "score_examples",
    "score_stream",
]
