"""Fig. 2 — SWEEP and SCOPE are blind on D-MUX / symmetric locking.

The paper locks each ISCAS-85 benchmark 100× with K = 64 and shows both
constant-propagation attacks stuck at KPA ≈ 50 %.  This runner performs
the same protocol at a configurable number of copies; the claim
reproduced is the *flat ≈ 0.5 KPA line* across benchmarks and schemes.

The study is a declarative grid of baseline
:class:`~repro.experiments.runner.Cell`\\ s run on the
:class:`~repro.experiments.runner.ExperimentRunner` it is given — the
same cell type, engine, store and job bus the MuxLink figures use, so
locked copies persist, reports are content-addressed, and serial /
fanned-out / reordered runs are bit-identical.  Every copy derives its lock
stream and each attack its coin stream from the cell identity
(:func:`~repro.experiments.runner.make_baseline_cell`), replacing the
old flat ``seed + i`` scheme that fed the lock, SCOPE's coin and
SWEEP's coin one correlated stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import KeyMetrics, aggregate_metrics
from repro.experiments.common import ExperimentScale, active_scale
from repro.experiments.runner import Cell, ExperimentRunner, make_baseline_cell
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME

__all__ = ["Fig2Row", "fig2_cells", "run_fig2", "format_fig2"]

#: Attack order within one (scheme, benchmark) block — fixed so the
#: emitted rows match the historical table layout.
_FIG2_ATTACKS = ("scope", "sweep")


@dataclass(frozen=True)
class Fig2Row:
    """Pooled attack scores for one (benchmark, scheme, attack) cell."""

    benchmark: str
    scheme: str
    attack: str
    metrics: KeyMetrics


def fig2_cells(
    scale: ExperimentScale | None = None,
    n_copies: int = 4,
    key_size: int | None = None,
    seed: int = 0,
) -> list[Cell]:
    """The (scheme × benchmark × attack × copy) grid as declarative cells.

    SWEEP trains leave-one-out: copy *i*'s corpus is every other copy,
    in index order (the corpus order is part of the artifact identity).
    """
    scale = scale or active_scale()
    key_size = key_size or min(scale.iscas_keys)
    cells: list[Cell] = []
    for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME):
        for name in scale.iscas:
            for attack in _FIG2_ATTACKS:
                for copy in range(n_copies):
                    train = (
                        tuple(j for j in range(n_copies) if j != copy)
                        if attack == "sweep"
                        else ()
                    )
                    cells.append(
                        make_baseline_cell(
                            name,
                            scale.circuit_scale_iscas,
                            scheme,
                            key_size,
                            attack,
                            seed=seed,
                            copy=copy,
                            train_copies=train,
                            undecided="coin",
                            margin=1e-3,
                        )
                    )
    return cells


def run_fig2(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    n_copies: int = 4,
    key_size: int | None = None,
    seed: int = 0,
) -> list[Fig2Row]:
    """Regenerate the Fig. 2 resilience study.

    Args:
        runner: the :class:`ExperimentRunner` the grid runs on (its
            caches, store and bus).
        scale: experiment preset (CI default).
        n_copies: locked copies per benchmark (paper: 100; CI: 4).
        key_size: key bits per copy (paper: 64; default: smallest preset key).
        seed: base RNG seed.
    """
    cells = fig2_cells(scale, n_copies=n_copies, key_size=key_size, seed=seed)
    records = runner.run(cells)
    # Cell order is (scheme, benchmark, attack, copy): pool each run of
    # n_copies consecutive records into one row.
    rows: list[Fig2Row] = []
    for start in range(0, len(records), n_copies):
        block = records[start : start + n_copies]
        cell = cells[start]
        rows.append(
            Fig2Row(
                cell.benchmark,
                cell.scheme,
                cell.config.attack.upper(),
                aggregate_metrics([r.metrics for r in block]),
            )
        )
    return rows


def format_fig2(rows: list[Fig2Row]) -> str:
    lines = [
        "Fig. 2 — constant-propagation attacks on learning-resilient locking",
        f"{'benchmark':<10}{'scheme':<15}{'attack':<8}{'AC':>8}{'PC':>8}{'KPA':>8}",
    ]
    for r in rows:
        m = r.metrics
        lines.append(
            f"{r.benchmark:<10}{r.scheme:<15}{r.attack:<8}"
            f"{m.accuracy:>8.3f}{m.precision:>8.3f}{m.kpa:>8.3f}"
        )
    return "\n".join(lines)
