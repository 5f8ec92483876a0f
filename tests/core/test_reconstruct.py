"""Tests for design recovery and HD-with-X evaluation."""

import pytest

from repro.benchgen import random_netlist
from repro.core import hamming_with_x
from repro.locking import apply_key, lock_dmux
from repro.sim import hamming_distance


def setup(seed=0, key_size=8):
    base = random_netlist("base", 10, 5, 100, seed=seed)
    locked = lock_dmux(base, key_size=key_size, seed=seed)
    return base, locked


def test_correct_key_gives_zero_hd():
    base, locked = setup()
    assert hamming_with_x(base, locked.circuit, locked.key, n_patterns=2048) == 0.0


def test_recover_design_matches_apply_key():
    """The design recovery every HD evaluation runs: the correct key
    applied to the locked netlist gives back the original function."""
    base, locked = setup(seed=1)
    recovered = apply_key(locked.circuit, locked.key)
    assert hamming_distance(base, recovered, n_patterns=1024) == 0.0


def test_wrong_key_gives_positive_hd():
    base, locked = setup(seed=2)
    wrong = "".join("1" if c == "0" else "0" for c in locked.key)
    assert hamming_with_x(base, locked.circuit, wrong, n_patterns=2048) > 0.0


def test_x_bits_average_over_assignments():
    base, locked = setup(seed=3, key_size=6)
    # Replace one correct bit with x: HD averages the correct (0) and the
    # wrong (> 0) assignment, so it must lie strictly between.
    key_with_x = "x" + locked.key[1:]
    hd_x = hamming_with_x(base, locked.circuit, key_with_x, n_patterns=2048)
    wrong0 = (
        ("1" if locked.key[0] == "0" else "0") + locked.key[1:]
    )
    hd_wrong = hamming_with_x(base, locked.circuit, wrong0, n_patterns=2048)
    assert hd_x == pytest.approx(hd_wrong / 2, rel=1e-6)


def test_many_x_bits_sampled_not_enumerated():
    base, locked = setup(seed=4, key_size=10)
    all_x = "x" * 10
    hd = hamming_with_x(
        base, locked.circuit, all_x, n_patterns=512, max_assignments=8
    )
    assert 0.0 <= hd <= 1.0


def test_x_enumeration_is_exhaustive_when_small():
    base, locked = setup(seed=5, key_size=4)
    # 2 x bits -> 4 assignments, one of which is the correct key.
    key = locked.key[:2] + "xx"
    hd = hamming_with_x(base, locked.circuit, key, n_patterns=1024)
    # Average includes the perfect assignment, so HD < max single-wrong HD.
    assert hd >= 0.0
