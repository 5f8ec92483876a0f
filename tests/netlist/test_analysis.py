"""Tests for the structural analysis helpers."""

import pytest

from repro.benchgen import load_c17, random_netlist
from repro.netlist import area_estimate, switching_estimate


def test_area_and_switching_scale_with_size():
    small = random_netlist("s", 6, 3, 30, seed=1)
    large = random_netlist("l", 6, 3, 120, seed=1)
    assert area_estimate(large) > area_estimate(small)
    assert switching_estimate(large) > switching_estimate(small)
    assert switching_estimate(small) > area_estimate(small) * 0.5


def test_rename_gate_updates_everything():
    c = load_c17().copy()
    c.rename_gate("G16", "G16_new")
    assert not c.has_gate("G16")
    assert "G16_new" in c.gate("G22").inputs
    assert "G16_new" in c.gate("G23").inputs
    c.validate()
    with pytest.raises(Exception):
        c.rename_gate("G10", "G16_new")  # name collision
