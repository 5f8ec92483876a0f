"""Design recovery and Hamming-distance evaluation (paper Fig. 8).

The recovered key may contain ``x`` bits; following the paper, the HD for
such keys averages over the possible remaining key-bit assignments.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.locking import apply_key
from repro.netlist import Circuit
from repro.sim import hamming_distance

__all__ = ["hamming_with_x"]


def _x_positions(key: str) -> list[int]:
    return [i for i, c in enumerate(key) if c in "xX"]


def hamming_with_x(
    original: Circuit,
    locked: Circuit,
    predicted_key: str,
    n_patterns: int = 10_000,
    seed: int = 0,
    max_assignments: int = 32,
) -> float:
    """Average HD between *original* and the recovered design.

    Decided bits are hard-coded; the ``x`` bits are enumerated exhaustively
    when ``2**n_x <= max_assignments`` and sampled uniformly otherwise
    (the paper enumerates "all the possible remaining key-bit assignments"
    — feasible there because few bits stay undecided).
    """
    xs = _x_positions(predicted_key)
    if not xs:
        recovered = apply_key(locked, predicted_key)
        return hamming_distance(original, recovered, n_patterns, seed=seed)

    if 2 ** len(xs) <= max_assignments:
        assignments = list(itertools.product("01", repeat=len(xs)))
    else:
        rng = np.random.default_rng(seed)
        assignments = [
            tuple(str(b) for b in rng.integers(0, 2, size=len(xs)))
            for _ in range(max_assignments)
        ]

    total = 0.0
    key_chars = list(predicted_key)
    for assignment in assignments:
        for pos, bit in zip(xs, assignment):
            key_chars[pos] = bit
        recovered = apply_key(locked, "".join(key_chars))
        total += hamming_distance(original, recovered, n_patterns, seed=seed)
    return total / len(assignments)
