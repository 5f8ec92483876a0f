"""Key-recovery post-processing (paper Sec. III-E, Algorithm 1).

The GNN outputs a likelihood per candidate link.  Post-processing turns
those into key bits per obfuscated locality:

* **single MUX** (S2/S3): compare the two candidate likelihoods; commit
  when they differ by at least ``th``.
* **shared-key pair** (S4): two MUXes driven by one key input; the MUX with
  the larger likelihood gap decides the shared bit.
* **individual-key pair** (S1/S5): Algorithm 1 — the larger gap decides its
  own MUX's bit and the partner receives the complementary assignment
  (both MUXes multiplex the same two source nets, so exactly one of them
  passes each net).

Localities are reconstructed from attacker-visible structure only: shared
key inputs and shared data-net pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

from repro.errors import AttackError

__all__ = [
    "ScoredMux",
    "ensemble_likelihoods",
    "postprocess_likelihoods",
    "decisions_to_key",
]


@dataclass(frozen=True)
class ScoredMux:
    """One key MUX with scored candidate links.

    Attributes:
        mux_name: MUX gate name (for reporting).
        key_index: key bit on the select pin.
        load: node index of the locked gate.
        drivers: ``(d0, d1)`` node indices of the data pins.
        likelihoods: ``(l_d0, l_d1)`` GNN scores of the candidate links.
    """

    mux_name: str
    key_index: int
    load: int
    drivers: tuple[int, int]
    likelihoods: tuple[float, float]

    @property
    def delta(self) -> float:
        return abs(self.likelihoods[0] - self.likelihoods[1])

    def best_select(self) -> int:
        """Key value passing the higher-likelihood candidate."""
        return 0 if self.likelihoods[0] >= self.likelihoods[1] else 1

    def best_driver(self) -> int:
        return self.drivers[self.best_select()]

    def select_passing(self, driver: int) -> int:
        """Key value that passes *driver* through this MUX."""
        if driver == self.drivers[0]:
            return 0
        if driver == self.drivers[1]:
            return 1
        raise AttackError(f"driver {driver} is not an input of {self.mux_name}")


@dataclass(frozen=True)
class _Decision:
    bit: str  # "0" / "1" / "x"
    confidence: float


def _decide_single(mux: ScoredMux, th: float) -> dict[int, _Decision]:
    if mux.delta >= th:
        return {mux.key_index: _Decision(str(mux.best_select()), mux.delta)}
    return {mux.key_index: _Decision("x", mux.delta)}


def _decide_shared_key(muxes: list[ScoredMux], th: float) -> dict[int, _Decision]:
    """S4: all MUXes share one key input; the widest gap decides."""
    winner = max(muxes, key=lambda m: m.delta)
    if winner.delta >= th:
        return {winner.key_index: _Decision(str(winner.best_select()), winner.delta)}
    return {winner.key_index: _Decision("x", winner.delta)}


def _decide_pair(mi: ScoredMux, mj: ScoredMux, th: float) -> dict[int, _Decision]:
    """Algorithm 1 for S1/S5 localities (individual keys, same net pair)."""
    d1, d2 = mi.delta, mj.delta
    if max(d1, d2) < th or d1 == d2:
        # Lines 16–19: no decision (including the exact-tie case).
        return {
            mi.key_index: _Decision("x", d1),
            mj.key_index: _Decision("x", d2),
        }
    winner, partner = (mi, mj) if d1 > d2 else (mj, mi)
    winner_bit = winner.best_select()
    winner_driver = winner.best_driver()
    other_driver = (
        winner.drivers[1] if winner_driver == winner.drivers[0] else winner.drivers[0]
    )
    partner_bit = partner.select_passing(other_driver)
    return {
        winner.key_index: _Decision(str(winner_bit), winner.delta),
        partner.key_index: _Decision(str(partner_bit), winner.delta),
    }


def postprocess_likelihoods(
    scored: list[ScoredMux], threshold: float = 0.01
) -> dict[int, str]:
    """Recover key-bit assignments from scored MUXes.

    Returns:
        ``{key_index: "0" | "1" | "x"}``.  Conflicting decisions for the
        same bit (possible only in malformed inputs) resolve by confidence.
    """
    if not 0 <= threshold < math.inf:
        raise AttackError(f"threshold must be finite and >= 0, got {threshold}")

    by_key: dict[int, list[ScoredMux]] = defaultdict(list)
    for mux in scored:
        by_key[mux.key_index].append(mux)

    # Partner S1/S5 pairs: individual keys, identical driver pair.
    by_driver_set: dict[frozenset, list[ScoredMux]] = defaultdict(list)
    for mux in scored:
        if len(by_key[mux.key_index]) == 1:  # not an S4 member
            by_driver_set[frozenset(mux.drivers)].append(mux)

    decisions: dict[int, _Decision] = {}

    def merge(new: dict[int, _Decision]) -> None:
        for key_index, decision in new.items():
            held = decisions.get(key_index)
            if held is None or decision.confidence > held.confidence:
                decisions[key_index] = decision

    paired: set[str] = set()
    for muxes in by_driver_set.values():
        if len(muxes) == 2 and muxes[0].key_index != muxes[1].key_index:
            merge(_decide_pair(muxes[0], muxes[1], threshold))
            paired.update(m.mux_name for m in muxes)

    for key_index, muxes in by_key.items():
        if len(muxes) > 1:
            merge(_decide_shared_key(muxes, threshold))
        elif muxes[0].mux_name not in paired:
            merge(_decide_single(muxes[0], threshold))

    return {key_index: d.bit for key_index, d in decisions.items()}


def decisions_to_key(decisions: dict[int, str], n_bits: int) -> str:
    """Render per-bit decisions as a key string, ``x`` for missing bits."""
    return "".join(decisions.get(i, "x") for i in range(n_bits))


def ensemble_likelihoods(
    scored: list[ScoredMux],
    bit_scores: dict[int, float],
    weight: float = 0.25,
) -> list[ScoredMux]:
    """Blend per-bit baseline scores into MuxLink's per-MUX likelihoods.

    *bit_scores* follow the SCOPE/SWEEP sign convention — a positive
    score backs key-bit value ``"0"`` (select 0 passes the true driver).
    Scores are normalized by the corpus peak ``max |score|`` so *weight*
    is a fraction of the likelihood scale regardless of which attack
    produced them; the boost is added to the backed select's likelihood
    **before** Algorithm 1, so a structural signal can tip an
    under-threshold GNN gap over the decision line (and never flips a
    confident one unless it out-weighs the gap).

    Against D-MUX / symmetric locking the baselines are blind (scores
    ≈ 0 after normalization degenerate to no-ops), so the ensemble is a
    strict superset of MuxLink there — exactly the paper's resilience
    claim restated as a combiner.
    """
    if weight < 0:
        raise AttackError("ensemble weight must be non-negative")
    if not bit_scores:
        return list(scored)
    peak = max(abs(score) for score in bit_scores.values())
    if peak == 0.0:
        return list(scored)
    out: list[ScoredMux] = []
    for mux in scored:
        score = bit_scores.get(mux.key_index)
        if not score:
            out.append(mux)
            continue
        vote = score / peak  # in [-1, 1]; positive backs select 0
        l0, l1 = mux.likelihoods
        if vote > 0:
            l0 += weight * vote
        else:
            l1 += weight * -vote
        out.append(replace(mux, likelihoods=(l0, l1)))
    return out
