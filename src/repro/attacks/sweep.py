"""SWEEP — supervised constant propagation attack.

SWEEP trains per-feature weights on a corpus of locked designs with known
keys: for every key bit it hard-codes both values, re-synthesizes, extracts
design-feature deltas, and fits a linear model mapping delta → correct bit.
At attack time the learned weights score each target key bit; scores inside
the margin are reported as ``x`` (or flipped as a coin, like the original
tool's arbitrary decisions).

Against D-MUX / symmetric locking every delta is (near-)zero by
construction, the regression has no signal, and SWEEP collapses to ≈50 %
KPA — paper Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AttackError
from repro.locking.common import LockedCircuit
from repro.locking.keys import key_input_index, key_inputs_of
from repro.netlist import Circuit
from repro.opt import cleanup, design_features, propagate_constants

__all__ = ["SweepAttack", "SweepReport"]


def _key_bit_deltas(circuit: Circuit) -> dict[int, np.ndarray]:
    """Per-key-bit feature deltas F(k=0) - F(k=1) after re-synthesis."""
    deltas: dict[int, np.ndarray] = {}
    for key_net in key_inputs_of(circuit):
        features = {}
        for value in (0, 1):
            resynth = cleanup(propagate_constants(circuit, {key_net: value}))
            features[value] = design_features(resynth)
        deltas[key_input_index(key_net)] = features[0] - features[1]
    return deltas


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one SWEEP attack run."""

    predicted_key: str
    scores: dict[int, float]
    n_blind: int


@dataclass
class SweepAttack:
    """Trainable SWEEP attack instance.

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
            deltas = _key_bit_deltas(locked.circuit)
            for bit, delta in deltas.items():
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

    def attack(self, circuit: Circuit) -> SweepReport:
        """Predict the key of a locked netlist using the learned weights."""
        if self._weights is None:
            raise AttackError("call fit() before attack()")
        key_nets = key_inputs_of(circuit)
        if not key_nets:
            raise AttackError("no key inputs found; is this netlist locked?")
        n_bits = max(key_input_index(k) for k in key_nets) + 1
        rng = np.random.default_rng(self.seed)

        deltas = _key_bit_deltas(circuit)
        guesses: dict[int, str] = {}
        scores: dict[int, float] = {}
        n_blind = 0
        for bit, delta in deltas.items():
            if delta.shape != self._weights.shape:
                raise AttackError(
                    f"feature dimension mismatch: target design yields "
                    f"{delta.shape[0]}-dim features but the model was "
                    f"fitted on {self._weights.shape[0]}-dim features"
                )
            score = float(delta @ self._weights)
            scores[bit] = score
            if score > self.margin:
                guesses[bit] = "0"
            elif score < -self.margin:
                guesses[bit] = "1"
            elif self.undecided == "coin":
                guesses[bit] = str(int(rng.integers(2)))
                n_blind += 1
            else:
                guesses[bit] = "x"
                n_blind += 1
        predicted = "".join(guesses.get(i, "x") for i in range(n_bits))
        return SweepReport(
            predicted_key=predicted, scores=scores, n_blind=n_blind
        )
