"""MuxLink core: attack orchestration, post-processing, metrics, recovery."""

from repro.core.metrics import KeyMetrics, aggregate_metrics, score_key
from repro.core.muxlink import (
    MuxLinkConfig,
    MuxLinkResult,
    rescore_key,
    run_muxlink,
)
from repro.core.postprocess import (
    ScoredMux,
    decisions_to_key,
    ensemble_likelihoods,
    postprocess_likelihoods,
)
from repro.core.reconstruct import hamming_with_x

__all__ = [
    "MuxLinkConfig",
    "MuxLinkResult",
    "run_muxlink",
    "rescore_key",
    "ScoredMux",
    "ensemble_likelihoods",
    "postprocess_likelihoods",
    "decisions_to_key",
    "KeyMetrics",
    "score_key",
    "aggregate_metrics",
    "hamming_with_x",
]
