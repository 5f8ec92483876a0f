"""Output Hamming distance between two circuits (paper Fig. 8 metric).

The attacker's goal is HD → 0 % (functionally recovered design); the
defender's is 50 % (maximum corruption).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.netlist import Circuit
from repro.sim.simulator import random_patterns, simulate_outputs

__all__ = ["hamming_distance"]

_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


def _popcount(words: np.ndarray) -> int:
    return int(_POPCOUNT_TABLE[words.view(np.uint8)].sum())


def hamming_distance(
    reference: Circuit,
    candidate: Circuit,
    n_patterns: int = 100_000,
    seed: int = 0,
) -> float:
    """Average output Hamming distance over random input patterns.

    Both circuits must expose identical primary input and output name sets
    (order may differ).  Follows the paper: HD is the fraction of differing
    output bits over ``n_patterns`` uniform random patterns.

    Returns:
        HD in ``[0, 1]``.
    """
    if set(reference.inputs) != set(candidate.inputs):
        raise SimulationError("primary input sets differ")
    if set(reference.outputs) != set(candidate.outputs):
        raise SimulationError("primary output sets differ")

    words, n = random_patterns(len(reference.inputs), n_patterns, seed=seed)
    stimulus = {pi: words[i] for i, pi in enumerate(reference.inputs)}

    ref_out = simulate_outputs(reference, stimulus)
    # Stimulus is keyed by name, so candidate input order is irrelevant.
    cand_raw = simulate_outputs(candidate, stimulus)
    order = [candidate.outputs.index(po) for po in reference.outputs]
    cand_out = cand_raw[order]

    diff = ref_out ^ cand_out
    # Mask filler bits in the last word.
    tail_bits = n % 64
    if tail_bits:
        mask = np.uint64((1 << tail_bits) - 1)
        diff[:, -1] &= mask
    total_bits = n * len(reference.outputs)
    return _popcount(diff) / total_bits
