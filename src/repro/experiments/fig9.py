"""Fig. 9 — AC/PC/KPA versus the post-processing threshold ``th``.

The GNN is trained once; every threshold value only re-runs Algorithm 1
(exactly the paper's protocol — "the GNN does not require any re-training
as the th value only affects the post-processing").  Reproduced shape:
precision rises monotonically to 100 % at th = 1 while the decided-bit
ratio falls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import rescore_key, score_key
from repro.core.metrics import aggregate_metrics
from repro.experiments.common import ExperimentScale, active_scale
from repro.experiments.runner import Cell, ExperimentRunner, make_cell
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME

__all__ = ["Fig9Row", "fig9_cells", "run_fig9", "format_fig9"]


@dataclass(frozen=True)
class Fig9Row:
    scheme: str
    threshold: float
    accuracy: float
    precision: float
    kpa: float
    decision_rate: float


def fig9_cells(scale: ExperimentScale, seed: int = 0) -> list[Cell]:
    """Both schemes at the largest preset key per ISCAS-85 benchmark."""
    return [
        make_cell(scale, name, circuit_scale, scheme, max(key_sizes), seed)
        for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME)
        for name, circuit_scale, key_sizes in scale.benchmarks()
        if name in scale.iscas
    ]


def run_fig9(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    thresholds: tuple[float, ...] | None = None,
    seed: int = 0,
) -> list[Fig9Row]:
    """Sweep ``th`` over trained attacks for both schemes.

    The GNN is trained once per (scheme, benchmark) cell on *runner* —
    and reused outright if that runner already ran Fig. 7 — and every
    threshold value only re-runs the Algorithm-1 post-processing.
    """
    scale = scale or active_scale()
    if thresholds is None:
        thresholds = tuple(np.round(np.arange(0.0, 1.0001, 0.05), 2))
    records = runner.run(fig9_cells(scale, seed))
    rows: list[Fig9Row] = []
    for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME):
        attacks = [r for r in records if r.scheme == scheme]
        for th in thresholds:
            metrics = aggregate_metrics(
                [
                    score_key(
                        rescore_key(a.extras["artifact"], th),
                        a.extras["locked"].key,
                    )
                    for a in attacks
                ]
            )
            kpa = metrics.kpa if metrics.kpa == metrics.kpa else 1.0
            rows.append(
                Fig9Row(
                    scheme=scheme,
                    threshold=float(th),
                    accuracy=metrics.accuracy,
                    precision=metrics.precision,
                    kpa=kpa,
                    decision_rate=metrics.decision_rate,
                )
            )
    return rows


def format_fig9(rows: list[Fig9Row]) -> str:
    lines = [
        "Fig. 9 — MuxLink under different post-processing thresholds",
        f"{'scheme':<15}{'th':>6}{'AC':>8}{'PC':>8}{'KPA':>8}{'decided':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.scheme:<15}{r.threshold:>6.2f}{r.accuracy:>8.3f}"
            f"{r.precision:>8.3f}{r.kpa:>8.3f}{r.decision_rate:>9.3f}"
        )
    return "\n".join(lines)
