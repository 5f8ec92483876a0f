"""Tests for the ANT/RNT learning-resilience harness."""

from repro.benchgen.resilience_tests import run_ant, run_rnt
from repro.locking import lock_dmux, lock_xor


def test_dmux_passes_both_tests():
    ant = run_ant(lock_dmux, key_size=8, seed=1)
    rnt = run_rnt(lock_dmux, key_size=8, seed=1)
    assert ant.test == "ANT" and rnt.test == "RNT"
    assert ant.passed, f"D-MUX failed ANT with KPA {ant.kpa:.3f}"
    assert rnt.passed, f"D-MUX failed RNT with KPA {rnt.kpa:.3f}"
    assert ant.n_bits > 0


def test_xor_fails_rnt():
    """Conventional XOR locking leaks the key-gate type; the supervised
    probe recovers far more than half the bits."""
    report = run_rnt(lock_xor, key_size=8, seed=2)
    assert not report.passed
    assert report.kpa > 0.8


def test_xor_fails_ant():
    report = run_ant(lock_xor, key_size=8, seed=3)
    assert not report.passed
    assert report.kpa > 0.8


def test_reports_are_deterministic():
    a = run_ant(lock_dmux, key_size=6, seed=5)
    b = run_ant(lock_dmux, key_size=6, seed=5)
    assert a == b
