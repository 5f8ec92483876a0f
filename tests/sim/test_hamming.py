"""Tests for Hamming-distance evaluation."""

import pytest

from repro.benchgen import load_c17, random_netlist
from repro.errors import SimulationError
from repro.netlist import Circuit, Gate, GateType
from repro.sim import hamming_distance


def test_identical_circuits_have_zero_hd():
    c = load_c17()
    assert hamming_distance(c, c.copy(), n_patterns=2048) == 0.0
    assert hamming_distance(c, c.copy(), n_patterns=4096, seed=0) == 0.0


def test_inverted_output_hd():
    c = load_c17()
    broken = c.copy()
    broken.add_gate(Gate("inv22", GateType.NOT, ("G22",)))
    broken.redirect_output("G22", "inv22")
    # Renaming breaks the name-set check, so rename back via buffer.
    with pytest.raises(SimulationError):
        hamming_distance(c, broken)


def test_single_stuck_output():
    """Forcing one of two outputs to its complement gives HD ~= half the
    per-output error rate."""
    c = Circuit("t", inputs=["a", "b"])
    c.add_gate(Gate("y1", GateType.AND, ("a", "b")))
    c.add_gate(Gate("y2", GateType.OR, ("a", "b")))
    c.add_output("y1")
    c.add_output("y2")

    broken = Circuit("t2", inputs=["a", "b"])
    broken.add_gate(Gate("y1", GateType.NAND, ("a", "b")))  # inverted
    broken.add_gate(Gate("y2", GateType.OR, ("a", "b")))
    broken.add_output("y1")
    broken.add_output("y2")

    hd = hamming_distance(c, broken, n_patterns=4096, seed=1)
    assert hd == pytest.approx(0.5, abs=0.02)  # y1 always wrong, y2 right


def test_output_order_independence():
    c = load_c17()
    swapped = Circuit("sw", inputs=list(c.inputs))
    for name in c.topological_order():
        swapped.add_gate(c.gate(name))
    swapped.add_output("G23")
    swapped.add_output("G22")
    assert hamming_distance(c, swapped, n_patterns=1024) == 0.0


def test_mismatched_interfaces_rejected():
    c = load_c17()
    other = random_netlist("r", 5, 2, 20, seed=0)
    with pytest.raises(SimulationError):
        hamming_distance(c, other)


def test_hd_is_deterministic_per_seed():
    a = load_c17()
    b = Circuit("b", inputs=list(a.inputs))
    for name in a.topological_order():
        g = a.gate(name)
        if name == "G22":
            b.add_gate(Gate(name, GateType.AND, g.inputs))  # wrong type
        else:
            b.add_gate(g)
    for po in a.outputs:
        b.add_output(po)
    h1 = hamming_distance(a, b, n_patterns=512, seed=9)
    h2 = hamming_distance(a, b, n_patterns=512, seed=9)
    assert h1 == h2
    assert 0.0 < h1 < 1.0
