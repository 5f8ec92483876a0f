"""DGCNN graph classifier and graph batching."""

from repro.gnn.batching import (
    BatchAssembler,
    GraphBatch,
    GraphExample,
    build_batch,
    normalized_adjacency,
    onehot_rows,
)
from repro.gnn.dgcnn import DGCNN, MIN_SORTPOOL_K, choose_sortpool_k

__all__ = [
    "GraphExample",
    "GraphBatch",
    "BatchAssembler",
    "build_batch",
    "normalized_adjacency",
    "onehot_rows",
    "DGCNN",
    "choose_sortpool_k",
    "MIN_SORTPOOL_K",
]
