"""SAAM must break naive MUX locking and fail on D-MUX / symmetric."""

import pytest

from repro.attacks import saam_attack
from repro.benchgen import random_netlist
from repro.core.metrics import score_key
from repro.errors import AttackError
from repro.locking import lock_dmux, lock_naive_mux, lock_symmetric


def base(seed=0):
    return random_netlist("base", 10, 5, 120, seed=seed)


def test_saam_breaks_naive_mux():
    locked = lock_naive_mux(base(seed=1), key_size=12, seed=2)
    report = saam_attack(locked.circuit)
    metrics = score_key(report.predicted_key, locked.key)
    # Every decided bit must be correct (reduction is a proof).
    assert metrics.n_wrong == 0
    # Naive locking prefers single-output true wires, so most bits fall.
    assert metrics.n_correct >= metrics.n_total // 2


def test_saam_decisions_are_proofs():
    """A decided bit implies asymmetric reduction: its score (gates
    removed by hard-coding 1 minus those removed by hard-coding 0)
    points at the decided value."""
    locked = lock_naive_mux(base(seed=2), key_size=8, seed=3)
    report = saam_attack(locked.circuit)
    assert "0" in report.predicted_key or "1" in report.predicted_key
    for bit, ch in enumerate(report.predicted_key):
        if ch == "0":
            assert report.scores[bit] > 0
        elif ch == "1":
            assert report.scores[bit] < 0


def test_saam_defeated_by_dmux():
    locked = lock_dmux(base(seed=3), key_size=12, seed=4)
    report = saam_attack(locked.circuit)
    # No reduction for any single hard-coded bit => all X.
    assert set(report.predicted_key) == {"x"}


def test_saam_defeated_by_symmetric():
    locked = lock_symmetric(base(seed=4), key_size=12, seed=5)
    report = saam_attack(locked.circuit)
    assert set(report.predicted_key) == {"x"}


def test_saam_rejects_unlocked_netlist():
    with pytest.raises(AttackError):
        saam_attack(base())
