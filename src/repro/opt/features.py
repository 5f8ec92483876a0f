"""Design feature vectors for the constant-propagation attacks.

SWEEP extracts per-key-value design features (area, power, gate counts, …)
from synthesis reports; SCOPE does the same without training.  We emulate
the report columns with topology-derived proxies — what matters to both
attacks is the *difference* between the two hard-coded key values, and any
asymmetric logic pruning moves every one of these features.
"""

from __future__ import annotations

import numpy as np

from repro.netlist import Circuit, GateType, area_estimate, switching_estimate

__all__ = ["FEATURE_NAMES", "design_features"]

_GATE_ORDER = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
    GateType.MUX,
)

#: Order of entries in :func:`design_features` vectors.
FEATURE_NAMES: tuple[str, ...] = (
    "num_gates",
    "num_nets",
    "depth",
    "area",
    "switching_power",
) + tuple(f"count_{g.value}" for g in _GATE_ORDER)


def design_features(circuit: Circuit) -> np.ndarray:
    """Extract the feature vector of *circuit* (see :data:`FEATURE_NAMES`)."""
    stats = circuit.stats()
    counts = [float(stats.gate_counts.get(g.value, 0)) for g in _GATE_ORDER]
    return np.array(
        [
            float(stats.num_gates),
            float(stats.num_nets),
            float(stats.depth),
            area_estimate(circuit),
            switching_estimate(circuit),
            *counts,
        ],
        dtype=float,
    )
