"""Positive / negative training-link sampling (paper Sec. III-C).

Positives are sampled from the observed wires of the attack graph;
negatives are sampled node pairs that are neither observed wires nor MUX
candidate links.  The dataset is balanced, capped (the paper uses at most
100 000 training links) and split 90/10 into train/validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.linkpred.graph import AttackGraph

__all__ = ["LinkSample", "sample_links"]


@dataclass(frozen=True)
class LinkSample:
    """Sampled training material: ``(u, v, label)`` triples."""

    train: list[tuple[int, int, int]]
    validation: list[tuple[int, int, int]]

    @property
    def n_links(self) -> int:
        return len(self.train) + len(self.validation)


def sample_links(
    graph: AttackGraph,
    max_links: int = 100_000,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> LinkSample:
    """Sample a balanced, shuffled set of positive and negative links.

    Args:
        graph: attack graph (targets already excluded from observed edges).
        max_links: cap on the total number of sampled links.
        val_fraction: share held out for validation.
        seed: RNG seed.

    Raises:
        TrainingError: if the graph is too small to sample from.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise TrainingError("val_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    edges = graph.edges()
    if not edges:
        raise TrainingError("attack graph has no observed links to learn from")

    per_class = min(len(edges), max_links // 2)
    chosen = rng.choice(len(edges), size=per_class, replace=False)
    positives = [(edges[i][0], edges[i][1], 1) for i in chosen]

    # Pairs that must never be sampled as negatives: observed wires and the
    # MUX candidate links under attack.
    excluded = {frozenset(e) for e in edges}
    for target in graph.targets:
        excluded.add(frozenset((target.cand_d0, target.load)))
        excluded.add(frozenset((target.cand_d1, target.load)))

    n = graph.n_nodes
    if n < 3:
        raise TrainingError("attack graph too small for negative sampling")
    negatives: list[tuple[int, int, int]] = []
    seen: set[frozenset] = set()
    attempts = 0
    max_attempts = per_class * 200
    while len(negatives) < per_class and attempts < max_attempts:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        pair = frozenset((u, v))
        if pair in excluded or pair in seen:
            continue
        seen.add(pair)
        negatives.append((u, v, 0))
    if len(negatives) < per_class:
        # Dense small graphs may not have enough non-edges; shrink to match.
        positives = positives[: len(negatives)]
    if not negatives:
        raise TrainingError("could not sample any negative links")

    links = positives + negatives
    order = rng.permutation(len(links))
    links = [links[i] for i in order]
    n_val = int(len(links) * val_fraction)
    return LinkSample(train=links[n_val:], validation=links[:n_val])
