"""Netlist substrate: gates, circuits, BENCH I/O and structural analysis."""

from repro.netlist.analysis import area_estimate, switching_estimate
from repro.netlist.bench import dump_bench, load_bench, parse_bench, write_bench
from repro.netlist.circuit import Circuit, CircuitStats, Gate
from repro.netlist.gates import (
    FEATURE_GATE_ORDER,
    NUM_GATE_FEATURES,
    GateType,
    evaluate_gate,
    gate_feature_index,
)

__all__ = [
    "Circuit",
    "CircuitStats",
    "Gate",
    "GateType",
    "FEATURE_GATE_ORDER",
    "NUM_GATE_FEATURES",
    "evaluate_gate",
    "gate_feature_index",
    "parse_bench",
    "load_bench",
    "write_bench",
    "dump_bench",
    "area_estimate",
    "switching_estimate",
]
