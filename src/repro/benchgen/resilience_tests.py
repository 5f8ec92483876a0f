"""ANT / RNT learning-resilience tests (D-MUX paper, Sec. II-A).

The D-MUX authors propose two conclusive vulnerability tests for a locking
scheme:

* **ANT** (AND netlist test) — lock designs synthesized from a *single*
  gate type.  Any structural key leakage has nowhere to hide.
* **RNT** (random netlist test) — lock designs with randomly selected,
  well-distributed gates.

A scheme fails a test when an attacker can recover significantly more than
half of the key bits from the locked netlists alone.  This harness probes
leakage with the supervised SWEEP attack (trained on independently locked
copies), mirroring how TRLL was shown to fail ANT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.attacks import SweepAttack
from repro.benchgen.generators import and_netlist, random_netlist
from repro.core.metrics import aggregate_metrics, score_key
from repro.locking.common import LockedCircuit
from repro.netlist import Circuit

__all__ = ["ResilienceReport", "run_ant", "run_rnt"]


class Locker(Protocol):
    def __call__(
        self, circuit: Circuit, key_size: int, seed: int = ...
    ) -> LockedCircuit: ...


@dataclass(frozen=True)
class ResilienceReport:
    """Outcome of one learning-resilience test.

    Attributes:
        test: ``"ANT"`` or ``"RNT"``.
        kpa: pooled key-prediction accuracy of the probe attack.
        passed: True when the probe stays within *margin* of coin flipping.
        n_bits: total key bits probed.
    """

    test: str
    kpa: float
    passed: bool
    n_bits: int


def _probe(
    test: str,
    make_circuit: Callable[[str, int], Circuit],
    locker: Locker,
    key_size: int,
    n_train: int,
    n_test: int,
    margin: float,
    seed: int,
) -> ResilienceReport:
    corpus = [
        locker(make_circuit(f"{test.lower()}{i}", seed + i), key_size=key_size,
               seed=seed + i)
        for i in range(n_train + n_test)
    ]
    train, test_set = corpus[:n_train], corpus[n_train:]
    attack = SweepAttack(margin=1e-3, undecided="coin", seed=seed).fit(train)
    scores = [
        score_key(attack.attack(t.circuit).predicted_key, t.key)
        for t in test_set
    ]
    pooled = aggregate_metrics(scores)
    kpa = pooled.kpa
    return ResilienceReport(
        test=test,
        kpa=kpa,
        passed=abs(kpa - 0.5) <= margin,
        n_bits=pooled.n_total,
    )


def run_ant(
    locker: Locker,
    key_size: int = 8,
    n_gates: int = 120,
    n_train: int = 4,
    n_test: int = 3,
    margin: float = 0.2,
    seed: int = 0,
) -> ResilienceReport:
    """AND netlist test: single-gate-type designs."""
    return _probe(
        "ANT",
        lambda name, s: and_netlist(name, 10, 5, n_gates, seed=s),
        locker, key_size, n_train, n_test, margin, seed,
    )


def run_rnt(
    locker: Locker,
    key_size: int = 8,
    n_gates: int = 120,
    n_train: int = 4,
    n_test: int = 3,
    margin: float = 0.2,
    seed: int = 0,
) -> ResilienceReport:
    """Random netlist test: well-distributed gate types."""
    return _probe(
        "RNT",
        lambda name, s: random_netlist(name, 10, 5, n_gates, seed=s),
        locker, key_size, n_train, n_test, margin, seed,
    )
