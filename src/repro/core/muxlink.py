"""The end-to-end MuxLink attack (paper Fig. 5).

Pipeline: locked BENCH netlist → attack graph → sampled link dataset →
DGCNN training → candidate-link scoring → Algorithm-1 post-processing →
predicted key.  Oracle-less throughout: only the locked netlist is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.postprocess import (
    ScoredMux,
    decisions_to_key,
    postprocess_likelihoods,
)
from repro.gnn import DGCNN
from repro.linkpred import (
    AttackGraph,
    TrainConfig,
    TrainHistory,
    make_trainer,
    build_link_dataset,
    build_target_examples,
    extract_attack_graph,
    iter_target_examples,
    sample_links,
    score_examples,
    score_stream,
)
from repro.netlist import Circuit

__all__ = ["MuxLinkConfig", "MuxLinkResult", "run_muxlink", "rescore_key"]


@dataclass(frozen=True)
class MuxLinkConfig:
    """All attack knobs (paper defaults).

    Attributes:
        h: enclosing-subgraph hop count (paper: 3).
        threshold: post-processing decision threshold ``th`` (paper: 0.01).
        max_train_links: cap on sampled training links (paper: 100 000).
        val_fraction: validation share (paper: 10 %).
        train: GNN training hyper-parameters.
        use_drnl / use_gate_types: feature ablation switches.
        seed: sampling seed.
        score_prefetch: candidate scoring runs as a streamed pipeline —
            target-subgraph extraction overlaps GNN forwards with at most
            this many batches in flight (``<= 0`` restores the serial
            extract-everything-then-score path; likelihoods are identical
            either way).
    """

    h: int = 3
    threshold: float = 0.01
    max_train_links: int = 100_000
    val_fraction: float = 0.1
    train: TrainConfig = field(default_factory=TrainConfig)
    use_drnl: bool = True
    use_gate_types: bool = True
    use_degree: bool = True
    seed: int = 0
    score_prefetch: int = 2


@dataclass
class MuxLinkResult:
    """Everything the attack produced.

    ``scored`` retains per-MUX likelihoods, so the threshold study (Fig. 9)
    re-runs post-processing without re-training via :func:`rescore_key`.

    A result rematerialized from the artifact store carries the trained
    model (weights round-trip through ``repro.store.codec``) but no
    attack graph — ``graph`` is ``None`` there; re-extract it from the
    locked netlist when needed.
    """

    predicted_key: str
    scored: list[ScoredMux]
    n_key_bits: int
    history: TrainHistory
    runtime_seconds: dict[str, float]
    graph: AttackGraph | None = None
    model: DGCNN | None = None

    @property
    def total_runtime(self) -> float:
        return sum(self.runtime_seconds.values())


def run_muxlink(
    circuit: Circuit,
    config: MuxLinkConfig = MuxLinkConfig(),
    store=None,
) -> MuxLinkResult:
    """Attack a MUX-locked netlist.

    Args:
        circuit: the locked design (key inputs named ``keyinput<i>``,
            key gates are ``MUX`` primitives selected by them).
        config: attack configuration.
        store: optional :class:`~repro.store.ArtifactStore` (or a path
            to one).  The attack is then content-addressed by the
            netlist digest + the semantic config hash: a hit skips
            training entirely (the cached per-MUX likelihoods are
            re-thresholded at ``config.threshold``), a miss computes and
            persists.  The CLI, the figure drivers and the bench suite
            all key into the same pool.

    Returns:
        A :class:`MuxLinkResult` with the predicted key (``x`` for
        undecided bits) and full diagnostics.
    """
    # Local import: repro.store pulls netlist/locking helpers whose
    # package chain leads back into repro.core.
    from repro import store as store_mod

    artifact_store = store_mod.resolve_store(store) if store is not None else None
    store_key = None
    if artifact_store is not None:
        digest = store_mod.circuit_digest(circuit)
        store_key = store_mod.attack_store_key(digest, config)
        result = artifact_store.get(
            "attacks", store_key, decoder=store_mod.decode_attack_artifact
        )
        if result is not None:
            # The artifact was trained at *some* threshold; re-run the
            # (deterministic) post-processing at this caller's.
            result.predicted_key = rescore_key(result, config.threshold)
            return result

    runtime: dict[str, float] = {}

    start = time.perf_counter()
    graph = extract_attack_graph(circuit)
    sample = sample_links(
        graph,
        max_links=config.max_train_links,
        val_fraction=config.val_fraction,
        seed=config.seed,
    )
    dataset = build_link_dataset(
        graph,
        sample,
        h=config.h,
        use_drnl=config.use_drnl,
        use_gate_types=config.use_gate_types,
        use_degree=config.use_degree,
    )
    runtime["sampling"] = time.perf_counter() - start

    start = time.perf_counter()
    # The trainer owns batch caching, early stopping, LR scheduling and
    # checkpoint/resume; all knobs arrive through ``config.train``
    # (make_trainer picks the serial or gradient-sharded engine, and the
    # K-FAC preconditioner when configured).
    model, history = make_trainer(dataset, config.train).fit()
    runtime["training"] = time.perf_counter() - start

    start = time.perf_counter()
    if config.score_prefetch > 0:
        # Streamed pipeline: a producer thread extracts/featurizes the
        # candidate subgraphs chunk by chunk while this thread scores the
        # previous batches (bounded prefetch).  The batch partition — and
        # therefore every likelihood — is identical to the serial path.
        target_examples: list = []

        def chunks():
            for group in iter_target_examples(
                graph, dataset,
                chunk_size=config.train.batch_size,
            ):
                target_examples.extend(group)
                yield [t.example for t in group]

        likelihoods = score_stream(
            model, chunks(), config.train.batch_size,
            prefetch=config.score_prefetch,
        )
    else:
        target_examples = build_target_examples(graph, dataset)
        likelihoods = score_examples(
            model, [t.example for t in target_examples], config.train.batch_size
        )
    runtime["testing"] = time.perf_counter() - start

    start = time.perf_counter()
    # Regroup per MUX: examples arrive as (d0, d1) pairs per target.
    scored: list[ScoredMux] = []
    by_mux: dict[tuple[str, int], dict[int, float]] = {}
    meta: dict[tuple[str, int], object] = {}
    for example, likelihood in zip(target_examples, likelihoods):
        key = (example.target.mux_name, example.target.load)
        by_mux.setdefault(key, {})[example.select_value] = float(likelihood)
        meta[key] = example.target
    for key, scores in by_mux.items():
        target = meta[key]
        scored.append(
            ScoredMux(
                mux_name=target.mux_name,
                key_index=target.key_index,
                load=target.load,
                drivers=(target.cand_d0, target.cand_d1),
                likelihoods=(scores[0], scores[1]),
            )
        )
    n_bits = max(t.key_index for t in graph.targets) + 1
    decisions = postprocess_likelihoods(scored, config.threshold)
    predicted = decisions_to_key(decisions, n_bits)
    runtime["post_processing"] = time.perf_counter() - start

    result = MuxLinkResult(
        predicted_key=predicted,
        scored=scored,
        n_key_bits=n_bits,
        history=history,
        runtime_seconds=runtime,
        graph=graph,
        model=model,
    )
    if artifact_store is not None and store_key is not None:
        artifact_store.put(
            "attacks", store_key, store_mod.encode_attack_artifact(result)
        )
    return result


def rescore_key(result: MuxLinkResult, threshold: float) -> str:
    """Re-run post-processing under a different ``th`` (no re-training)."""
    decisions = postprocess_likelihoods(result.scored, threshold)
    return decisions_to_key(decisions, result.n_key_bits)
