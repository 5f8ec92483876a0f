"""Baseline oracle-less attacks: SAAM, SCOPE, SWEEP and the random floor.

SAAM, SCOPE and SWEEP share one idea: hard-code each key bit to 0 and
to 1, re-synthesize, and decide the bit from the asymmetry of the two
results.  They differ only in what they measure and how they weigh it:

* **SAAM** counts the gates each value leaves dangling.  A value that
  disconnects a true logic cone is provably wrong, so naive MUX locking
  falls at once; D-MUX and symmetric locking are immune by construction
  (paper Sec. I-A2).
* **SCOPE** (unsupervised) compares design features of the two results
  with fixed weights: the value whose circuit **retains more logic** is
  taken as correct (a documented simplification of SCOPE's clustering).
* **SWEEP** (supervised) fits the feature weights by ridge regression
  on locked designs with known keys, once, and then attacks many
  designs with them.

Against D-MUX and symmetric locking the two branches are symmetric by
design, every feature delta is (near) zero, and SCOPE and SWEEP fall
back on a seeded coin — the ≈50 % KPA of paper Fig. 2.  The random
guess is the floor every attack is judged against.

Every attack returns one :class:`BaselineReport` (the random guess, its
key string).  :func:`run_baseline_attack` runs the attack a picklable
:class:`BaselineConfig` names; it is how a ``baseline`` job of
:data:`repro.jobs.KINDS` runs, on the serial path and the bus workers
alike, as :func:`~repro.core.run_muxlink` is for an ``attack`` job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.errors import AttackError
from repro.locking.common import LockedCircuit
from repro.locking.keys import key_input_index, key_inputs_of
from repro.netlist import Circuit
from repro.opt import (
    cleanup,
    design_features,
    propagate_constants,
    remove_dead_logic,
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

#: Attack names :class:`BaselineConfig` accepts.
BASELINE_ATTACKS = ("saam", "scope", "sweep", "random")

#: SCOPE's feature weights for the asymmetry score: gate count, net count
#: and area dominate (the report columns real SCOPE keys on).
_SCOPE_WEIGHTS = np.array([1.0, 1.0, 0.25, 0.5, 0.25])


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
        scores: per-bit decision scores in key-input order; positive
            backs bit value ``"0"``.  For SAAM it is the gates removed
            by hard-coding 1 minus those removed by hard-coding 0.
            Empty for the random-guess floor.
        n_blind: bits decided without structural signal (coin or ``x``).
        runtime_seconds: wall-clock of the attack run (excluded from
            fingerprints — never part of the artifact identity).
    """

    attack: str
    predicted_key: str
    scores: dict[int, float] = field(default_factory=dict)
    n_blind: int = 0
    runtime_seconds: float = 0.0


def _key_bits(circuit: Circuit) -> tuple[tuple[str, ...], int]:
    """Key inputs of a locked netlist and its key width (highest index + 1)."""
    key_nets = key_inputs_of(circuit)
    if not key_nets:
        raise AttackError("no key inputs found; is this netlist locked?")
    return key_nets, max(key_input_index(k) for k in key_nets) + 1


def _hardcoded(circuit: Circuit, measure: Callable) -> dict[int, tuple]:
    """``bit → (measure(circuit with bit = 0), measure(... = 1))`` for
    every key input, in key-input order."""
    return {
        key_input_index(net): tuple(
            measure(propagate_constants(circuit, {net: value}))
            for value in (0, 1)
        )
        for net in key_inputs_of(circuit)
    }


def _deltas(circuit: Circuit) -> dict[int, np.ndarray]:
    """Per-key-bit feature deltas F(k=0) - F(k=1) after re-synthesis."""
    features = _hardcoded(circuit, lambda c: design_features(cleanup(c)))
    return {bit: f0 - f1 for bit, (f0, f1) in features.items()}


def _decide(
    attack: str,
    scores: dict[int, float],
    n_bits: int,
    margin: float,
    undecided: str,
    seed: int,
) -> BaselineReport:
    """SCOPE/SWEEP's rule: a score above ``+margin`` gives 0, one below
    ``-margin`` gives 1, anything else a seeded coin (``undecided="coin"``)
    or ``x``, drawn in key-input order."""
    rng = np.random.default_rng(seed)
    guesses: dict[int, str] = {}
    n_blind = 0
    for bit, score in scores.items():
        if score > margin:
            guesses[bit] = "0"
        elif score < -margin:
            guesses[bit] = "1"
        else:
            guesses[bit] = (
                str(int(rng.integers(2))) if undecided == "coin" else "x"
            )
            n_blind += 1
    return BaselineReport(
        attack=attack,
        predicted_key="".join(guesses.get(i, "x") for i in range(n_bits)),
        scores=scores,
        n_blind=n_blind,
    )


def saam_attack(circuit: Circuit) -> BaselineReport:
    """Run SAAM on a locked netlist (``keyinput<i>`` key inputs).

    A key bit is decided only when exactly one of its two values causes
    circuit reduction, so every decision is a structural proof.
    """
    _, n_bits = _key_bits(circuit)
    removed = _hardcoded(circuit, lambda c: remove_dead_logic(c)[1])
    guesses = {
        # The one value that leaves logic dangling is provably wrong.
        bit: ("0" if r1 else "1") if (r0 == 0) != (r1 == 0) else "x"
        for bit, (r0, r1) in removed.items()
    }
    return BaselineReport(
        attack="saam",
        predicted_key="".join(guesses.get(i, "x") for i in range(n_bits)),
        scores={bit: float(r1 - r0) for bit, (r0, r1) in removed.items()},
        n_blind=sum(1 for guess in guesses.values() if guess == "x"),
    )


def scope_attack(
    circuit: Circuit,
    threshold: float = 1e-9,
    undecided: str = "coin",
    seed: int = 0,
) -> BaselineReport:
    """Run SCOPE on a locked netlist.

    Args:
        circuit: locked design with ``keyinput<i>`` key inputs.
        threshold: minimum |score| for a structural decision.
        undecided: ``"coin"`` (flip a seeded coin, mirroring the arbitrary
            decisions synthesis noise produces in the original tool) or
            ``"x"`` (abstain).
        seed: seed for the coin flips.
    """
    if undecided not in ("coin", "x"):
        raise AttackError("undecided must be 'coin' or 'x'")
    _, n_bits = _key_bits(circuit)
    scores = {
        bit: float(np.dot(delta[: len(_SCOPE_WEIGHTS)], _SCOPE_WEIGHTS))
        for bit, delta in _deltas(circuit).items()
    }
    return _decide("scope", scores, n_bits, threshold, undecided, seed)


@dataclass
class SweepAttack:
    """Trainable SWEEP attack: :meth:`fit` once, :meth:`attack` many.

    Attributes:
        margin: |score| below which a bit is undecided.
        undecided: ``"x"`` to abstain, ``"coin"`` for seeded random guesses.
        ridge: L2 regularization of the least-squares fit.
    """

    margin: float = 1e-6
    undecided: str = "x"
    ridge: float = 1e-3
    seed: int = 0
    _weights: np.ndarray | None = field(default=None, repr=False)

    def fit(self, training_set: list[LockedCircuit]) -> "SweepAttack":
        """Learn feature weights from locked designs with known keys.

        Targets are ``+1`` for a correct bit of 0 and ``-1`` for 1, matching
        the sign convention of :meth:`attack` scores.
        """
        if not training_set:
            raise AttackError("SWEEP needs a non-empty training set")
        rows: list[np.ndarray] = []
        targets: list[float] = []
        for locked in training_set:
            for bit, delta in _deltas(locked.circuit).items():
                if bit >= len(locked.key):
                    raise AttackError(
                        f"key bit {bit} outside key of size {len(locked.key)}"
                    )
                rows.append(delta)
                targets.append(1.0 if locked.key[bit] == "0" else -1.0)
        X = np.vstack(rows)
        y = np.array(targets)
        gram = X.T @ X + self.ridge * np.eye(X.shape[1])
        self._weights = np.linalg.solve(gram, X.T @ y)
        return self

    def attack(self, circuit: Circuit) -> BaselineReport:
        """Predict the key of a locked netlist using the learned weights."""
        if self._weights is None:
            raise AttackError("call fit() before attack()")
        _, n_bits = _key_bits(circuit)
        scores = {
            bit: float(delta @ self._weights)
            for bit, delta in _deltas(circuit).items()
        }
        return _decide(
            "sweep", scores, n_bits, self.margin, self.undecided, self.seed
        )


def random_guess_attack(circuit: Circuit, seed: int = 0) -> str:
    """Guess every key bit uniformly at random (the 50 % KPA floor).

    Any attack whose KPA is statistically indistinguishable from this
    baseline has been defeated by the locking scheme.
    """
    key_nets, n_bits = _key_bits(circuit)
    rng = np.random.default_rng(seed)
    present = {key_input_index(k) for k in key_nets}
    return "".join(
        str(int(rng.integers(2))) if i in present else "x"
        for i in range(n_bits)
    )


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
        report = saam_attack(circuit)
    elif config.attack == "scope":
        report = scope_attack(
            circuit, config.threshold, config.undecided, config.seed
        )
    elif config.attack == "sweep":
        if not train:
            raise AttackError(
                "baseline attack 'sweep' needs a training corpus of "
                "locked designs with known keys"
            )
        report = SweepAttack(
            config.margin, config.undecided, config.ridge, config.seed
        ).fit(list(train)).attack(circuit)
    else:  # "random" — BaselineConfig already validated the name
        predicted = random_guess_attack(circuit, seed=config.seed)
        n_guessed = len(predicted) - predicted.count("x")
        report = BaselineReport("random", predicted, n_blind=n_guessed)
    return replace(report, runtime_seconds=time.perf_counter() - started)
