"""Tests for the bit-parallel simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import load_c17, random_netlist
from repro.errors import SimulationError
from repro.netlist import Circuit, Gate, GateType
from repro.sim import random_patterns, simulate, simulate_outputs


def exhaustive_words(n_inputs):
    """Packed stimulus covering all 2**n_inputs patterns (n_inputs <= 6):
    input *i* of pattern *p* is bit *i* of *p*, stored in bit *p* of the
    input's one word."""
    n = 1 << n_inputs
    words = [sum(((p >> i) & 1) << p for p in range(n)) for i in range(n_inputs)]
    return np.array(words, dtype=np.uint64)[:, None], n


def bit(words, p):
    return (int(words[p // 64]) >> (p % 64)) & 1


def test_c17_exhaustive_against_reference():
    """Validate against an independent python-int model of c17."""
    c17 = load_c17()
    words, n = exhaustive_words(5)
    outs = simulate_outputs(c17, words)
    for p in range(n):
        g1, g2, g3, g6, g7 = ((p >> i) & 1 for i in range(5))
        g10 = 1 - (g1 & g3)
        g11 = 1 - (g3 & g6)
        g16 = 1 - (g2 & g11)
        g19 = 1 - (g11 & g7)
        g22 = 1 - (g10 & g16)
        g23 = 1 - (g16 & g19)
        assert bit(outs[0], p) == g22, f"pattern {p}"
        assert bit(outs[1], p) == g23, f"pattern {p}"


def test_simulate_returns_all_nets():
    c17 = load_c17()
    words, _ = exhaustive_words(5)
    values = simulate(c17, words)
    assert set(values) == set(c17.nets)


def test_dict_stimulus_and_missing_input():
    c17 = load_c17()
    words, _ = exhaustive_words(5)
    stim = {pi: words[i] for i, pi in enumerate(c17.inputs)}
    out_a = simulate_outputs(c17, stim)
    out_b = simulate_outputs(c17, words)
    assert np.array_equal(out_a, out_b)
    del stim["G1"]
    with pytest.raises(SimulationError):
        simulate(c17, stim)


def test_wrong_row_count_rejected():
    c17 = load_c17()
    with pytest.raises(SimulationError):
        simulate(c17, np.zeros((3, 1), dtype=np.uint64))


def test_mux_gate_simulation():
    c = Circuit("m", inputs=["s", "a", "b"])
    c.add_gate(Gate("y", GateType.MUX, ("s", "a", "b")))
    c.add_output("y")
    words, n = exhaustive_words(3)
    outs = simulate_outputs(c, words)
    for p in range(n):
        s, a, b = p & 1, (p >> 1) & 1, (p >> 2) & 1
        assert bit(outs[0], p) == (b if s else a)


def test_random_patterns_shape_and_determinism():
    w1, n1 = random_patterns(7, 200, seed=3)
    w2, _ = random_patterns(7, 200, seed=3)
    assert w1.shape == (7, 4)
    assert n1 == 200
    assert np.array_equal(w1, w2)
    w3, _ = random_patterns(7, 200, seed=4)
    assert not np.array_equal(w1, w3)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_simulation_is_deterministic_on_random_circuits(seed):
    c = random_netlist("r", 6, 3, 40, seed=seed)
    words, _ = random_patterns(6, 128, seed=seed)
    a = simulate_outputs(c, words)
    b = simulate_outputs(c, words)
    assert np.array_equal(a, b)
