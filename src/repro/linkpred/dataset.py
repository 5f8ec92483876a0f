"""Assembling GNN-ready datasets from sampled links (paper Sec. III-B/C).

Each sampled link becomes an enclosing subgraph with a node-information
matrix ``X = [gate-type one-hot (8) | DRNL one-hot | degree one-hot (8)]``.
The degree block is this repository's extension (ROADMAP item 4 puts it
on trial against the paper's two blocks).  The DRNL one-hot width is
fixed by the largest label seen in the *training* material; larger labels
encountered at attack time clamp to the "far" bucket, as node degrees
clamp to the last degree column.

``X`` is stored **index-coded**: every row is fully described by the
column of the one in each enabled block, so an example carries an
``(n_nodes, blocks)`` array of those columns, ascending within a row, in
the smallest unsigned dtype that holds the dense width (with every block
off: one zero column at width 1, the all-ones matrix).  The dense float
rows are written per batch by :mod:`repro.gnn.batching`.

Subgraphs are extracted through the batched CSR pipeline
(:func:`repro.linkpred.subgraph.extract_enclosing_subgraphs`) and
featurized array-at-a-time: the label / gate-type / degree vectors of the
whole split are concatenated, written into one column array, and split
back into per-example views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.gnn import GraphExample
from repro.linkpred.graph import AttackGraph, MuxTarget
from repro.linkpred.sampling import LinkSample
from repro.linkpred.subgraph import (
    EnclosingSubgraph,
    extract_enclosing_subgraphs,
)
from repro.netlist import NUM_GATE_FEATURES

__all__ = [
    "LinkDataset",
    "TargetExample",
    "build_link_dataset",
    "build_target_examples",
    "iter_target_examples",
]


_MAX_DEGREE_FEATURE = 8


def _feature_width(
    max_label: int, use_drnl: bool, use_gate_types: bool, use_degree: bool
) -> int:
    """Dense width of the node-information matrix (1 with every block off)."""
    width = (
        (NUM_GATE_FEATURES if use_gate_types else 0)
        + (max_label + 1 if use_drnl else 0)
        + (_MAX_DEGREE_FEATURE if use_degree else 0)
    )
    return max(width, 1)


def _features_batch(
    subgraphs: Sequence[EnclosingSubgraph],
    max_label: int,
    use_drnl: bool = True,
    use_gate_types: bool = True,
    use_degree: bool = True,
) -> list[np.ndarray]:
    """Index-coded node-information matrices for many subgraphs in one pass.

    The whole split's ``(total_nodes, blocks)`` column array is allocated
    once and each enabled block writes its columns into its own column
    (one vectorized assignment per block, no per-example loops); the
    result is split back into per-subgraph views.
    """
    sizes = np.array([s.n_nodes for s in subgraphs], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    width = _feature_width(max_label, use_drnl, use_gate_types, use_degree)
    blocks: list[np.ndarray] = []
    col = 0
    if use_gate_types:
        blocks.append(np.concatenate([s.gate_type_ids for s in subgraphs]))
        col += NUM_GATE_FEATURES
    if use_drnl:
        labels = np.concatenate([s.labels for s in subgraphs])
        blocks.append(col + np.minimum(labels, max_label))
        col += max_label + 1
    if use_degree:
        degrees = np.concatenate([s.degrees for s in subgraphs])
        blocks.append(col + np.minimum(degrees, _MAX_DEGREE_FEATURE - 1))
    stacked = np.zeros(
        (int(bounds[-1]), max(len(blocks), 1)), np.min_scalar_type(width)
    )
    for j, block in enumerate(blocks):
        stacked[:, j] = block
    return [
        stacked[bounds[i] : bounds[i + 1]] for i in range(len(subgraphs))
    ]


@dataclass
class LinkDataset:
    """Train/validation subgraph examples plus the feature configuration.

    Every example's features are index-coded at ``feature_width``.
    """

    train: list[GraphExample]
    validation: list[GraphExample]
    max_label: int
    feature_width: int
    h: int
    use_drnl: bool = True
    use_gate_types: bool = True
    use_degree: bool = True
    subgraph_sizes: list[int] = field(default_factory=list)


def build_link_dataset(
    graph: AttackGraph,
    sample: LinkSample,
    h: int = 3,
    use_drnl: bool = True,
    use_gate_types: bool = True,
    use_degree: bool = True,
) -> LinkDataset:
    """Extract and featurize enclosing subgraphs for every sampled link.

    Args:
        graph: the attack graph.
        sample: sampled train/validation links.
        h: enclosing-subgraph hop count.
        use_drnl / use_gate_types / use_degree: feature ablation switches.
    """
    links = [(u, v, label, True) for u, v, label in sample.train]
    links += [(u, v, label, False) for u, v, label in sample.validation]
    if not links:
        raise TrainingError("no links to build a dataset from")

    subgraphs = extract_enclosing_subgraphs(
        graph, [(u, v) for u, v, _, _ in links], h
    )
    max_label = max(
        1, max(int(s.labels.max(initial=0)) for s in subgraphs)
    )
    features = _features_batch(
        subgraphs, max_label, use_drnl, use_gate_types, use_degree
    )

    train: list[GraphExample] = []
    validation: list[GraphExample] = []
    sizes: list[int] = []
    width = _feature_width(max_label, use_drnl, use_gate_types, use_degree)
    for sub, feats, (_, _, label, is_train) in zip(subgraphs, features, links):
        example = GraphExample(
            n_nodes=sub.n_nodes,
            edges=sub.edges,
            features=feats,
            label=label,
            feature_width=width,
        )
        (train if is_train else validation).append(example)
        if is_train:
            sizes.append(sub.n_nodes)
    return LinkDataset(
        train=train,
        validation=validation,
        max_label=max_label,
        feature_width=width,
        h=h,
        use_drnl=use_drnl,
        use_gate_types=use_gate_types,
        use_degree=use_degree,
        subgraph_sizes=sizes,
    )


@dataclass(frozen=True)
class TargetExample:
    """A candidate link of one key MUX, ready for scoring.

    Attributes:
        target: the owning MUX record.
        select_value: key value that would pass this candidate (0 for d0).
        example: the unlabeled subgraph.
    """

    target: MuxTarget
    select_value: int
    example: GraphExample


def iter_target_examples(
    graph: AttackGraph,
    dataset: LinkDataset,
    chunk_size: int | None = None,
) -> Iterator[list[TargetExample]]:
    """Yield both candidate links of every key MUX, extracted lazily.

    Produces exactly the :class:`TargetExample` sequence of
    :func:`build_target_examples`, but in contiguous chunks of
    ``chunk_size`` candidates: each chunk's enclosing subgraphs are
    extracted and featurized only when the chunk is requested, so a
    downstream scorer (:func:`repro.linkpred.trainer.score_stream`) can
    overlap its GNN forwards with extraction on large designs.

    ``chunk_size`` is rounded up to even so the (d0, d1) candidates of a
    MUX stay in one chunk — they share the ``load`` endpoint, and the
    per-chunk BFS cache dedupes that distance map between them.
    ``None`` extracts everything in one chunk.
    """
    records = [
        (target, select_value, driver, load)
        for target in graph.targets
        for driver, load, select_value in target.candidates()
    ]
    if chunk_size is None:
        chunk_size = max(len(records), 1)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    chunk_size += chunk_size % 2
    width = dataset.feature_width
    for start in range(0, len(records), chunk_size):
        chunk = records[start : start + chunk_size]
        subgraphs = extract_enclosing_subgraphs(
            graph, [(driver, load) for _, _, driver, load in chunk], dataset.h
        )
        features = _features_batch(
            subgraphs,
            dataset.max_label,
            dataset.use_drnl,
            dataset.use_gate_types,
            dataset.use_degree,
        )
        yield [
            TargetExample(
                target=target,
                select_value=select_value,
                example=GraphExample(
                    n_nodes=sub.n_nodes,
                    edges=sub.edges,
                    features=feats,
                    label=-1,
                    feature_width=width,
                ),
            )
            for (target, select_value, _, _), sub, feats in zip(
                chunk, subgraphs, features
            )
        ]


def build_target_examples(
    graph: AttackGraph, dataset: LinkDataset
) -> list[TargetExample]:
    """Featurize both candidate links of every key MUX.

    Must use the *training* feature configuration (same ``max_label`` and
    blocks) so the model sees consistent input widths.  Both candidates of
    a MUX share the ``load`` endpoint, so batching them through the CSR
    pipeline reuses that BFS between them.  One-chunk convenience wrapper
    over :func:`iter_target_examples`.
    """
    return [
        example
        for chunk in iter_target_examples(graph, dataset)
        for example in chunk
    ]
