"""Bit-parallel logic simulation.

Patterns are packed 64 per ``uint64`` word, so simulating the paper's
100 000 random patterns over a few-thousand-gate circuit is a handful of
numpy passes.  This replaces the Synopsys VCS flow the authors used for the
Hamming-distance experiment (Fig. 8) with identical combinational semantics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.netlist import Circuit, evaluate_gate

__all__ = ["random_patterns", "simulate", "simulate_outputs"]


def random_patterns(
    n_inputs: int, n_patterns: int, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Generate packed uniform random patterns.

    Returns:
        ``(words, n_patterns)`` where *words* has shape
        ``(n_inputs, ceil(n_patterns / 64))``.  Bits beyond *n_patterns* in
        the last word are random filler; consumers must mask them.
    """
    if n_inputs < 1 or n_patterns < 1:
        raise SimulationError("need at least one input and one pattern")
    rng = np.random.default_rng(seed)
    n_words = (n_patterns + 63) // 64
    words = rng.integers(
        0, np.iinfo(np.uint64).max, size=(n_inputs, n_words), dtype=np.uint64,
        endpoint=True,
    )
    return words, n_patterns


def simulate(
    circuit: Circuit,
    input_words: dict[str, np.ndarray] | np.ndarray,
) -> dict[str, np.ndarray]:
    """Evaluate every net of *circuit* over packed pattern words.

    Args:
        circuit: combinational netlist (validated, loop-free).
        input_words: either a mapping from primary-input name to a word
            array, or a ``(n_inputs, n_words)`` array in declaration order.

    Returns:
        Mapping from every net name (inputs and gates) to its word array.
    """
    if isinstance(input_words, np.ndarray):
        if input_words.shape[0] != len(circuit.inputs):
            raise SimulationError(
                f"expected {len(circuit.inputs)} input rows, "
                f"got {input_words.shape[0]}"
            )
        values: dict[str, np.ndarray] = {
            pi: input_words[i] for i, pi in enumerate(circuit.inputs)
        }
    else:
        values = dict(input_words)
        missing = [pi for pi in circuit.inputs if pi not in values]
        if missing:
            raise SimulationError(f"missing stimulus for inputs {missing!r}")

    shapes = {v.shape for v in values.values()}
    if len(shapes) != 1:
        raise SimulationError(f"inconsistent stimulus shapes {shapes!r}")

    for name in circuit.topological_order():
        gate = circuit.gate(name)
        values[name] = evaluate_gate(
            gate.gate_type, [values[net] for net in gate.inputs]
        )
    return values


def simulate_outputs(
    circuit: Circuit,
    input_words: dict[str, np.ndarray] | np.ndarray,
) -> np.ndarray:
    """Evaluate only the primary outputs; returns ``(n_outputs, n_words)``."""
    values = simulate(circuit, input_words)
    return np.stack([values[po] for po in circuit.outputs])
