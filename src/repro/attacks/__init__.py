"""Baseline oracle-less attacks: SAAM, SCOPE, SWEEP, random guess — one
module (:mod:`repro.attacks.baseline`), one :class:`BaselineReport`."""

from repro.attacks.baseline import (
    BASELINE_ATTACKS,
    BaselineConfig,
    BaselineReport,
    SweepAttack,
    random_guess_attack,
    run_baseline_attack,
    saam_attack,
    scope_attack,
)

__all__ = [
    "BASELINE_ATTACKS",
    "BaselineConfig",
    "BaselineReport",
    "run_baseline_attack",
    "saam_attack",
    "scope_attack",
    "SweepAttack",
    "random_guess_attack",
]
