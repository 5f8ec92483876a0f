"""Uniform job-shaped interface over the baseline attack zoo.

The individual attacks (:mod:`repro.attacks.saam`, ``scope``, ``sweep``,
``random_guess``) each expose their own report shape.  The experiment
runner and the job bus need one declarative, picklable unit instead:
:class:`BaselineConfig` names the attack plus every result-affecting
knob, and :class:`BaselineReport` is the common outcome — a predicted
key, per-bit scores (positive = the attack backs bit value ``"0"``,
mirroring SCOPE/SWEEP sign conventions) and the blind-bit count.

:func:`run_baseline_attack` is the single dispatch point used by the
serial path and the bus workers, exactly as
:func:`~repro.experiments.runner.execute_attack_job` is for MuxLink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.random_guess import random_guess_attack
from repro.attacks.saam import saam_attack
from repro.attacks.scope import scope_attack
from repro.attacks.sweep import SweepAttack
from repro.errors import AttackError
from repro.locking.common import LockedCircuit
from repro.netlist import Circuit

__all__ = [
    "BASELINE_ATTACKS",
    "BaselineConfig",
    "BaselineReport",
    "run_baseline_attack",
]

#: Attack names :class:`BaselineConfig` accepts.
BASELINE_ATTACKS = ("saam", "scope", "sweep", "random")


@dataclass(frozen=True)
class BaselineConfig:
    """Declarative configuration of one baseline attack run.

    Only the knobs the named attack actually consumes are part of its
    artifact identity — see
    :func:`repro.store.artifacts.baseline_config_token`, which drops
    the inert ones (SAAM has no knobs at all; the coin ``seed`` matters
    only when ``undecided="coin"``).
    """

    attack: str
    undecided: str = "coin"
    seed: int = 0
    threshold: float = 1e-9  # SCOPE: minimum |score| for a decision
    margin: float = 1e-6  # SWEEP: |score| below this is undecided
    ridge: float = 1e-3  # SWEEP: L2 regularization of the fit

    def __post_init__(self) -> None:
        if self.attack not in BASELINE_ATTACKS:
            raise AttackError(
                f"unknown baseline attack {self.attack!r}; choose from "
                f"{BASELINE_ATTACKS}"
            )


@dataclass(frozen=True)
class BaselineReport:
    """Common outcome shape of every baseline attack.

    Attributes:
        attack: which attack produced this (``BASELINE_ATTACKS`` member).
        predicted_key: per-bit guesses, ``x`` for abstained/absent bits.
        scores: per-bit decision scores; positive backs bit value ``"0"``
            (SCOPE/SWEEP convention).  Empty for the random-guess floor.
        n_blind: bits decided without structural signal (coin or ``x``).
        runtime_seconds: wall-clock of the attack run (excluded from
            fingerprints — never part of the artifact identity).
    """

    attack: str
    predicted_key: str
    scores: dict[int, float] = field(default_factory=dict)
    n_blind: int = 0
    runtime_seconds: float = 0.0


def _saam_report(circuit: Circuit) -> tuple[str, dict[int, float], int]:
    report = saam_attack(circuit)
    # Reduction asymmetry as a signed score: hard-coding value 1 removing
    # logic is evidence *against* bit 1, i.e. for bit "0" — positive.
    scores: dict[int, float] = {}
    for (bit, value), removed in report.reductions.items():
        scores[bit] = scores.get(bit, 0.0) + (removed if value else -removed)
    present = {bit for bit, _ in report.reductions}
    n_blind = sum(
        1 for bit in present if report.predicted_key[bit] == "x"
    )
    return report.predicted_key, scores, n_blind


def run_baseline_attack(
    circuit: Circuit,
    config: BaselineConfig,
    train: Sequence[LockedCircuit] = (),
) -> BaselineReport:
    """Run the configured baseline attack on a locked netlist.

    *train* is consumed only by SWEEP (its supervised corpus of locked
    designs with known keys; order matters — the normal-equation
    reduction is order-sensitive at the float level, so the artifact key
    treats it as an ordered tuple).
    """
    started = time.perf_counter()
    if config.attack == "saam":
        predicted, scores, n_blind = _saam_report(circuit)
    elif config.attack == "scope":
        report = scope_attack(
            circuit,
            threshold=config.threshold,
            undecided=config.undecided,
            seed=config.seed,
        )
        predicted, scores, n_blind = (
            report.predicted_key, dict(report.scores), report.n_blind,
        )
    elif config.attack == "sweep":
        if not train:
            raise AttackError(
                "baseline attack 'sweep' needs a training corpus of "
                "locked designs with known keys"
            )
        attack = SweepAttack(
            margin=config.margin,
            undecided=config.undecided,
            ridge=config.ridge,
            seed=config.seed,
        ).fit(list(train))
        report = attack.attack(circuit)
        predicted, scores, n_blind = (
            report.predicted_key, dict(report.scores), report.n_blind,
        )
    else:  # "random" — BaselineConfig already validated the name
        predicted = random_guess_attack(circuit, seed=config.seed)
        scores = {}
        n_blind = sum(1 for bit in predicted if bit != "x")
    return BaselineReport(
        attack=config.attack,
        predicted_key=predicted,
        scores=scores,
        n_blind=n_blind,
        runtime_seconds=time.perf_counter() - started,
    )
