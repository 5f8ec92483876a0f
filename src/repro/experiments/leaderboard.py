"""The resilience leaderboard: every attack × every scheme, one table.

The paper's argument is comparative — MuxLink breaks the
learning-resilient schemes that SAAM, SCOPE, SWEEP and random guessing
cannot.  This driver runs the full attack zoo over the fig. 7 grid
(schemes × benchmarks × key sizes) through one shared
:class:`~repro.experiments.runner.ExperimentRunner`, so every lock and
every attack artifact is content-addressed: a leaderboard over a store
warmed by ``repro figures`` re-locks nothing and re-attacks nothing,
and MuxLink rows are bit-identical to fig. 7's.

``ensemble=True`` adds combined rows (``muxlink+scope`` /
``muxlink+sweep``): the baseline's per-bit scores are blended into the
GNN's per-MUX likelihoods via
:func:`~repro.core.postprocess.ensemble_likelihoods` *before*
Algorithm 1 re-runs.  Combination happens coordinator-side from the two
cached artifacts — no extra jobs hit the bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    KeyMetrics,
    aggregate_metrics,
    decisions_to_key,
    ensemble_likelihoods,
    postprocess_likelihoods,
    score_key,
)
from repro.errors import AttackError
from repro.experiments.common import AttackRecord, ExperimentScale, active_scale
from repro.experiments.runner import (
    ExperimentRunner,
    make_baseline_cell,
    make_cell,
)
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME

__all__ = [
    "LEADERBOARD_ATTACKS",
    "ENSEMBLE_ATTACKS",
    "LeaderboardRow",
    "run_leaderboard",
    "format_leaderboard",
]

#: Default roster, strongest attack first.
LEADERBOARD_ATTACKS = ("muxlink", "saam", "scope", "sweep", "random")

#: Post-processing combinations available with ``ensemble=True``.
ENSEMBLE_ATTACKS = ("muxlink+scope", "muxlink+sweep")

_DISPLAY = {
    "muxlink": "MuxLink",
    "saam": "SAAM",
    "scope": "SCOPE",
    "sweep": "SWEEP",
    "random": "random",
    "muxlink+scope": "MuxLink+SCOPE",
    "muxlink+sweep": "MuxLink+SWEEP",
}

#: Likelihood boost applied per normalized baseline vote in ensembles.
ENSEMBLE_WEIGHT = 0.25


@dataclass(frozen=True)
class LeaderboardRow:
    """One (benchmark, scheme, key size, attack) leaderboard entry."""

    benchmark: str
    scheme: str
    key_size: int
    attack: str
    metrics: KeyMetrics
    predicted_key: str
    runtime_seconds: float


def _base_parts(attacks: tuple[str, ...]) -> list[str]:
    """Unique primitive attacks needed, in first-use order."""
    parts: list[str] = []
    for attack in attacks:
        for part in attack.split("+"):
            if part not in parts:
                parts.append(part)
    return parts


def run_leaderboard(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    attacks: tuple[str, ...] | None = None,
    ensemble: bool = False,
    train_copies: int = 2,
) -> list[LeaderboardRow]:
    """Run every requested attack over the fig. 7 grid on *runner*.

    Args:
        attacks: roster to run (default :data:`LEADERBOARD_ATTACKS`,
            plus :data:`ENSEMBLE_ATTACKS` when *ensemble* is set).
            Entries containing ``+`` are coordinator-side combinations.
        train_copies: extra locked copies (1..N) SWEEP trains on; the
            attacked copy is always copy 0 — the same lock instance the
            MuxLink grid uses, so the store stays shared with fig. 7.
    """
    scale = scale or active_scale()
    if attacks is None:
        attacks = LEADERBOARD_ATTACKS + (ENSEMBLE_ATTACKS if ensemble else ())
    for attack in attacks:
        for part in attack.split("+"):
            if part not in LEADERBOARD_ATTACKS:
                raise AttackError(f"unknown leaderboard attack {part!r}")
    parts = _base_parts(tuple(attacks))

    grid = [
        (scheme, name, circuit_scale, key_size)
        for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME)
        for name, circuit_scale, key_sizes in scale.benchmarks()
        for key_size in key_sizes
    ]
    cells = []
    for scheme, name, circuit_scale, key_size in grid:
        for part in parts:
            if part == "muxlink":
                cells.append(
                    make_cell(scale, name, circuit_scale, scheme, key_size, seed)
                )
            else:
                cells.append(
                    make_baseline_cell(
                        name,
                        circuit_scale,
                        scheme,
                        key_size,
                        part,
                        seed=seed,
                        copy=0,
                        train_copies=(
                            tuple(range(1, train_copies + 1))
                            if part == "sweep"
                            else ()
                        ),
                    )
                )
    records = runner.run(cells)

    by_part: dict[tuple, AttackRecord] = {}
    for (scheme, name, _, key_size), chunk in zip(
        grid, _chunks(records, len(parts))
    ):
        for part, record in zip(parts, chunk):
            by_part[(name, scheme, key_size, part)] = record

    rows: list[LeaderboardRow] = []
    for scheme, name, _, key_size in grid:
        for attack in attacks:
            if "+" in attack:
                mux_part, base_part = attack.split("+", 1)
                record = _combine(
                    by_part[(name, scheme, key_size, mux_part)],
                    by_part[(name, scheme, key_size, base_part)],
                    scale.threshold,
                )
            else:
                record = by_part[(name, scheme, key_size, attack)]
            rows.append(
                LeaderboardRow(
                    benchmark=name,
                    scheme=scheme,
                    key_size=key_size,
                    attack=attack,
                    metrics=record.metrics,
                    predicted_key=record.predicted_key,
                    runtime_seconds=record.runtime_seconds,
                )
            )
    return rows


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _combine(
    mux_record: AttackRecord, base_record: AttackRecord, threshold: float
) -> AttackRecord:
    """Ensemble one MuxLink record with one baseline record (same lock)."""
    result = mux_record.extras["artifact"]
    report = base_record.extras["artifact"]
    locked = mux_record.extras["locked"]
    adjusted = ensemble_likelihoods(
        result.scored, report.scores, weight=ENSEMBLE_WEIGHT
    )
    decisions = postprocess_likelihoods(adjusted, threshold)
    predicted = decisions_to_key(decisions, len(locked.key))
    return AttackRecord(
        benchmark=mux_record.benchmark,
        scheme=mux_record.scheme,
        key_size=mux_record.key_size,
        metrics=score_key(predicted, locked.key),
        runtime_seconds=mux_record.runtime_seconds + base_record.runtime_seconds,
        predicted_key=predicted,
        extras={},
    )



def format_leaderboard(rows: list[LeaderboardRow]) -> str:
    lines = [
        "Resilience leaderboard — schemes × attacks × key sizes",
        f"{'benchmark':<10}{'scheme':<15}{'K':>5} {'attack':<15}"
        f"{'AC':>8}{'PC':>8}{'KPA':>8}{'X':>5}{'sec':>8}",
    ]
    for r in rows:
        m = r.metrics
        kpa = f"{m.kpa:>8.3f}" if m.kpa == m.kpa else f"{'nan':>8}"
        lines.append(
            f"{r.benchmark:<10}{r.scheme:<15}{r.key_size:>5} "
            f"{_DISPLAY.get(r.attack, r.attack):<15}"
            f"{m.accuracy:>8.3f}{m.precision:>8.3f}{kpa}{m.n_x:>5}"
            f"{r.runtime_seconds:>8.1f}"
        )
    lines.append("")
    lines.append("Summary (pooled KPA per scheme × attack):")
    pools: dict[tuple[str, str], list[KeyMetrics]] = {}
    order: list[tuple[str, str]] = []
    for r in rows:
        key = (r.scheme, r.attack)
        if key not in pools:
            pools[key] = []
            order.append(key)
        pools[key].append(r.metrics)
    for scheme, attack in order:
        pooled = aggregate_metrics(pools[(scheme, attack)])
        kpa = f"{pooled.kpa:.3f}" if pooled.kpa == pooled.kpa else "nan"
        lines.append(
            f"  {scheme:<15}{_DISPLAY.get(attack, attack):<15}KPA={kpa}"
        )
    return "\n".join(lines)
