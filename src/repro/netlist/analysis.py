"""Area and switching proxies over :class:`~repro.netlist.Circuit`.

The SWEEP/SCOPE feature extractor (:func:`repro.opt.design_features`)
reads both as stand-ins for a synthesis report's area and power columns.
"""

from __future__ import annotations

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

__all__ = ["area_estimate", "switching_estimate"]

#: Relative area of each primitive in generic gate-equivalents (NAND2 = 1.0).
#: Used only as a *feature* for constant-propagation attacks; absolute
#: calibration is irrelevant as the attacks compare deltas.
_AREA_WEIGHTS: dict[GateType, float] = {
    GateType.NAND: 1.0,
    GateType.NOR: 1.0,
    GateType.AND: 1.25,
    GateType.OR: 1.25,
    GateType.NOT: 0.75,
    GateType.BUF: 0.75,
    GateType.XOR: 2.25,
    GateType.XNOR: 2.25,
    GateType.MUX: 2.5,
}


def area_estimate(circuit: Circuit) -> float:
    """Total area in gate-equivalents (SWEEP/SCOPE feature)."""
    return sum(_AREA_WEIGHTS[g.gate_type] for g in circuit.gates)


def switching_estimate(circuit: Circuit) -> float:
    """Crude dynamic-power proxy: area-weighted fan-out activity.

    SWEEP extracts power/area features from synthesis reports; we emulate the
    power column with a topology-only proxy so the attack sees a feature that
    *would* shift if constant propagation pruned logic asymmetrically.
    """
    total = 0.0
    for gate in circuit.gates:
        loads = circuit.fanout_size(gate.name)
        total += _AREA_WEIGHTS[gate.gate_type] * (1 + 0.5 * loads)
    return total
