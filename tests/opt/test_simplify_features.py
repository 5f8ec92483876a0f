"""Tests for cleanup passes and design-feature extraction."""

import numpy as np

from repro.benchgen import load_c17, random_netlist
from repro.netlist import Circuit, Gate, GateType
from repro.opt import (
    FEATURE_NAMES,
    cleanup,
    collapse_buffers,
    design_features,
    remove_dead_logic,
)
from repro.sim import hamming_distance


def circuit_with_dead_logic():
    c = Circuit("d", inputs=["a", "b"])
    c.add_gate(Gate("live", GateType.AND, ("a", "b")))
    c.add_gate(Gate("dead1", GateType.OR, ("a", "b")))
    c.add_gate(Gate("dead2", GateType.NOT, ("dead1",)))
    c.add_output("live")
    return c


def test_remove_dead_logic_strips_chains():
    c = circuit_with_dead_logic()
    cleaned, removed = remove_dead_logic(c)
    assert removed == 2
    assert set(cleaned.gate_names) == {"live"}
    # Original untouched.
    assert len(c) == 3


def test_remove_dead_logic_noop_on_clean_circuit():
    c = load_c17()
    cleaned, removed = remove_dead_logic(c)
    assert removed == 0
    assert len(cleaned) == len(c)


def test_collapse_buffers_rewires_loads():
    c = Circuit("b", inputs=["a"])
    c.add_gate(Gate("buf1", GateType.BUF, ("a",)))
    c.add_gate(Gate("buf2", GateType.BUF, ("buf1",)))
    c.add_gate(Gate("y", GateType.NOT, ("buf2",)))
    c.add_output("y")
    cleaned, removed = collapse_buffers(c)
    assert removed == 2
    assert cleaned.gate("y").inputs == ("a",)


def test_collapse_buffers_keeps_po_buffer():
    c = Circuit("b", inputs=["a"])
    c.add_gate(Gate("buf", GateType.BUF, ("a",)))
    c.add_output("buf")
    cleaned, removed = collapse_buffers(c)
    assert removed == 0
    assert cleaned.has_gate("buf")


def test_cleanup_preserves_function():
    c = random_netlist("r", 8, 4, 80, seed=2)
    # Inject buffers and dead logic.
    mutated = c.copy()
    mutated.add_gate(Gate("extra_buf", GateType.BUF, (mutated.gate_names[0],)))
    mutated.add_gate(Gate("extra_dead", GateType.NOT, ("extra_buf",)))
    cleaned = cleanup(mutated)
    assert hamming_distance(c, cleaned, n_patterns=1024) == 0.0
    assert not cleaned.has_gate("extra_dead")


def test_design_features_shape_and_names():
    c = load_c17()
    vec = design_features(c)
    assert vec.shape == (len(FEATURE_NAMES),)
    by_name = dict(zip(FEATURE_NAMES, vec))
    assert by_name["num_gates"] == 6
    assert by_name["count_NAND"] == 6
    assert by_name["count_XOR"] == 0
    assert by_name["depth"] == 3
    assert by_name["area"] > 0


# SCOPE and SWEEP score each key bit by the feature delta
# design_features(k=0) - design_features(k=1).
def test_feature_delta_zero_for_identical():
    c = load_c17()
    assert np.allclose(design_features(c) - design_features(c.copy()), 0.0)


def test_feature_delta_sees_pruning():
    c = circuit_with_dead_logic()
    cleaned, _ = remove_dead_logic(c)
    delta = design_features(c) - design_features(cleaned)
    by_name = dict(zip(FEATURE_NAMES, delta))
    assert by_name["num_gates"] == 2.0
    assert by_name["area"] > 0
