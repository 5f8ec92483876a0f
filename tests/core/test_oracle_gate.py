"""The attack's non-learned half on real locks, without training.

MuxLink has a learned half (the GNN scores each candidate link) and a
deterministic half: :func:`~repro.linkpred.extract_attack_graph` strips
the key MUXes into targets, and
:func:`~repro.core.postprocess_likelihoods` rebuilds the localities from
attacker-visible structure and runs Algorithm 1.  Here an oracle plays
the GNN — the true candidate of every target (the one its key bit
selects) scores 0.95 and the decoy 0.05, each with a small seeded
jitter — so any wrong or undecided bit is a fault of the deterministic
half.  The grid is every ISCAS-85 stand-in at CI scale, both schemes,
K in {16, 32} and lock seeds 1–3: 84 locks, all of which lock at this
scale.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.benchgen import ISCAS85_SUITE, load_benchmark
from repro.core import (
    ScoredMux,
    decisions_to_key,
    postprocess_likelihoods,
    score_key,
)
from repro.experiments import CI_SCALE
from repro.experiments.common import lock_with
from repro.linkpred import extract_attack_graph
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME

KEY_SIZES = (16, 32)
LOCK_SEEDS = (1, 2, 3)
JITTER = 0.04


def oracle_scored(graph, key: str, rng) -> list[ScoredMux]:
    """Every target scored by the oracle: true 0.95, decoy 0.05, each
    moved by up to ±JITTER so that no two likelihood gaps tie."""
    scored = []
    for target in graph.targets:
        true_select = int(key[target.key_index])
        likelihoods = [0.05, 0.05]
        likelihoods[true_select] = 0.95
        jittered = [l + rng.uniform(-JITTER, JITTER) for l in likelihoods]
        assert all(0.0 < l < 1.0 for l in jittered)
        scored.append(
            ScoredMux(
                mux_name=target.mux_name,
                key_index=target.key_index,
                load=target.load,
                drivers=(target.cand_d0, target.cand_d1),
                likelihoods=(jittered[0], jittered[1]),
            )
        )
    return scored


@pytest.mark.parametrize("scheme", [DMUX_SCHEME, SYMMETRIC_SCHEME])
def test_oracle_likelihoods_recover_every_key_bit(scheme):
    """AC = 1.000 and no ``x``, pooled over the scheme's 42 locks and
    for every locality strategy they use, at th 0.01."""
    rng = np.random.default_rng(15)
    pooled = defaultdict(lambda: [0, 0])  # strategy -> [correct, total]
    cells = 0
    for spec in ISCAS85_SUITE:
        base = load_benchmark(spec.name, scale=CI_SCALE.circuit_scale_iscas)
        for key_size in KEY_SIZES:
            for seed in LOCK_SEEDS:
                locked = lock_with(scheme, base, key_size, seed=seed)
                graph = extract_attack_graph(locked.circuit)
                decisions = postprocess_likelihoods(
                    oracle_scored(graph, locked.key, rng), threshold=0.01
                )
                predicted = decisions_to_key(decisions, key_size)
                cell = (spec.name, key_size, seed)
                metrics = score_key(predicted, locked.key)
                assert metrics.n_correct == key_size, (cell, predicted)
                for locality in locked.localities:
                    for bit in locality.key_indices():
                        tally = pooled[locality.strategy.value]
                        tally[0] += predicted[bit] == locked.key[bit]
                        tally[1] += 1
                cells += 1
    assert cells == len(ISCAS85_SUITE) * len(KEY_SIZES) * len(LOCK_SEEDS)
    expected = {"S1", "S2", "S3"} if scheme == DMUX_SCHEME else {"S5"}
    assert expected <= set(pooled), dict(pooled)
    for strategy, (correct, total) in pooled.items():
        assert correct == total, (strategy, correct, total)
