"""Fig. 10 — effect of the hop count ``h`` on scores and runtime.

Reproduced shape: scores jump from h = 1 to h = 2 and saturate by h ≈ 3,
while runtime grows with h (neighbourhoods grow exponentially).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import aggregate_metrics
from repro.experiments.common import ExperimentScale, active_scale
from repro.experiments.runner import Cell, ExperimentRunner, make_cell
from repro.locking import DMUX_SCHEME

__all__ = ["Fig10Row", "fig10_cells", "run_fig10", "format_fig10"]


@dataclass(frozen=True)
class Fig10Row:
    h: int
    accuracy: float
    precision: float
    kpa: float
    runtime_seconds: float


def fig10_cells(
    scale: ExperimentScale, hops: tuple[int, ...] = (1, 2, 3), seed: int = 0
) -> list[Cell]:
    """One D-MUX cell per (hop count, ISCAS-85 benchmark).

    The hop count only overrides the attack's ``h``; the cell seeds are
    keyed on the cell identity alone, so every hop attacks the *same*
    locked netlist and a shared runner locks each benchmark once.
    """
    return [
        make_cell(
            scale, name, circuit_scale, DMUX_SCHEME, max(key_sizes), seed, h=h
        )
        for h in hops
        for name, circuit_scale, key_sizes in scale.benchmarks()
        if name in scale.iscas
    ]


def run_fig10(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    hops: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
) -> list[Fig10Row]:
    """Re-run the attack for each h (paper: h in [1, 4], saturating at 3).

    All (hop, benchmark) cells go to *runner* as one wave, so a fanned-out
    run parallelizes across hops as well as benchmarks.
    """
    scale = scale or active_scale()
    cells = fig10_cells(scale, hops, seed)
    all_records = list(zip(cells, runner.run(cells)))
    rows: list[Fig10Row] = []
    for h in hops:
        records = [r for cell, r in all_records if cell.config.h == h]
        metrics = aggregate_metrics([r.metrics for r in records])
        kpa = metrics.kpa if metrics.kpa == metrics.kpa else 0.0
        rows.append(
            Fig10Row(
                h=h,
                accuracy=metrics.accuracy,
                precision=metrics.precision,
                kpa=kpa,
                runtime_seconds=sum(r.runtime_seconds for r in records),
            )
        )
    return rows


def format_fig10(rows: list[Fig10Row]) -> str:
    lines = [
        "Fig. 10 — MuxLink scores and runtime vs h-hop size",
        f"{'h':>3}{'AC':>8}{'PC':>8}{'KPA':>8}{'runtime(s)':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r.h:>3}{r.accuracy:>8.3f}{r.precision:>8.3f}"
            f"{r.kpa:>8.3f}{r.runtime_seconds:>12.1f}"
        )
    return "\n".join(lines)
