"""Gate types and their Boolean semantics.

The gate vocabulary mirrors the BENCH format used by the logic-locking
community (ISCAS-85 / ITC-99 distributions plus the ``MUX`` primitive used by
the released MuxLink / D-MUX artifacts).  Every combinational gate evaluates
bit-parallel over numpy ``uint64`` words so that the simulator in
:mod:`repro.sim` can run thousands of patterns per pass.

The paper encodes each gate's Boolean functionality as an 8-bit one-hot
vector (Sec. III-B).  :data:`FEATURE_GATE_ORDER` fixes that 8-entry order;
:func:`gate_feature_index` maps a :class:`GateType` onto it.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "GateType",
    "FEATURE_GATE_ORDER",
    "NUM_GATE_FEATURES",
    "gate_feature_index",
    "evaluate_gate",
    "gate_arity_ok",
]


class GateType(str, enum.Enum):
    """Boolean primitives supported by the netlist substrate."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    MUX = "MUX"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Order of the 8-bit one-hot gate-functionality encoding (paper Sec. III-B).
#: ``MUX`` is deliberately absent: MuxLink removes key-controlled MUXes from
#: the graph before feature construction, and a netlist fed to the GNN must
#: not contain any other MUX primitive.
FEATURE_GATE_ORDER: tuple[GateType, ...] = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)

NUM_GATE_FEATURES: int = len(FEATURE_GATE_ORDER)

_FEATURE_INDEX: dict[GateType, int] = {
    gate: idx for idx, gate in enumerate(FEATURE_GATE_ORDER)
}

def gate_feature_index(gate_type: GateType) -> int:
    """Return the position of *gate_type* in the 8-bit one-hot encoding.

    Raises:
        ValueError: if the gate type has no feature slot (``MUX``).
    """
    try:
        return _FEATURE_INDEX[gate_type]
    except KeyError:
        raise ValueError(
            f"gate type {gate_type!s} has no feature encoding; "
            "MUX key-gates must be removed before feature construction"
        ) from None


def gate_arity_ok(gate_type: GateType, n_inputs: int) -> bool:
    """Check whether *n_inputs* is a legal fan-in for *gate_type*."""
    if gate_type in (GateType.NOT, GateType.BUF):
        return n_inputs == 1
    if gate_type is GateType.MUX:
        return n_inputs == 3
    return n_inputs >= 2


def evaluate_gate(gate_type: GateType, inputs: list[np.ndarray]) -> np.ndarray:
    """Evaluate a gate bit-parallel over ``uint64`` pattern words.

    Args:
        gate_type: the Boolean primitive to evaluate.
        inputs: one ``uint64`` array per fan-in net.  For ``MUX`` the order is
            ``(select, d0, d1)`` and the output is ``d0`` where the select bit
            is 0, ``d1`` where it is 1 (matching ``MUX(k, a, b)`` in BENCH).

    Returns:
        The output pattern word array.
    """
    if not gate_arity_ok(gate_type, len(inputs)):
        raise ValueError(
            f"{gate_type!s} gate cannot take {len(inputs)} input(s)"
        )
    if gate_type is GateType.MUX:
        sel, d0, d1 = inputs
        return (d0 & ~sel) | (d1 & sel)
    if gate_type is GateType.NOT:
        return ~inputs[0]
    if gate_type is GateType.BUF:
        return inputs[0].copy()

    if gate_type in (GateType.AND, GateType.NAND):
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc &= word
        return ~acc if gate_type is GateType.NAND else acc
    if gate_type in (GateType.OR, GateType.NOR):
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc |= word
        return ~acc if gate_type is GateType.NOR else acc
    if gate_type in (GateType.XOR, GateType.XNOR):
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc ^= word
        return ~acc if gate_type is GateType.XNOR else acc
    raise AssertionError(f"unhandled gate type {gate_type!r}")
