"""Fig. 8 — Hamming distance of the designs recovered by MuxLink.

The paper recovers each D-MUX-locked ISCAS-85 design with the predicted
key (averaging over undecided bits) and reports a mean HD of 3.39 % —
i.e. near-complete functional recovery.  Reproduced shape: HD ≪ 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import hamming_with_x
from repro.experiments.common import ExperimentScale, active_scale
from repro.experiments.runner import Cell, ExperimentRunner, make_cell
from repro.locking import DMUX_SCHEME

__all__ = ["Fig8Row", "fig8_cells", "run_fig8", "format_fig8"]


@dataclass(frozen=True)
class Fig8Row:
    benchmark: str
    key_size: int
    accuracy: float
    n_x: int
    hamming_distance: float


def fig8_cells(scale: ExperimentScale, seed: int = 0) -> list[Cell]:
    """D-MUX at the largest preset key per ISCAS-85 benchmark.

    These cells carry the same identity as their Fig. 7 counterparts, so
    a shared runner re-locks and re-trains nothing for this figure.
    """
    return [
        make_cell(scale, name, circuit_scale, DMUX_SCHEME, max(key_sizes), seed)
        for name, circuit_scale, key_sizes in scale.benchmarks()
        if name in scale.iscas  # the paper's Fig. 8 covers the ISCAS-85 set
    ]


def run_fig8(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    seed: int = 0,
) -> list[Fig8Row]:
    """Attack each D-MUX benchmark on *runner* and measure recovered-design HD."""
    scale = scale or active_scale()
    records = runner.run(fig8_cells(scale, seed))
    rows: list[Fig8Row] = []
    for record in records:
        hd = hamming_with_x(
            record.extras["base"],
            record.extras["locked"].circuit,
            record.predicted_key,
            n_patterns=scale.hd_patterns,
            seed=seed,
            max_assignments=16,
        )
        rows.append(
            Fig8Row(
                benchmark=record.benchmark,
                key_size=record.key_size,
                accuracy=record.metrics.accuracy,
                n_x=record.metrics.n_x,
                hamming_distance=hd,
            )
        )
    return rows


def format_fig8(rows: list[Fig8Row]) -> str:
    lines = [
        "Fig. 8 — HD between original and MuxLink-recovered designs "
        "(paper avg: 3.39%)",
        f"{'benchmark':<10}{'K':>5}{'AC':>8}{'X':>5}{'HD%':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r.benchmark:<10}{r.key_size:>5}{r.accuracy:>8.3f}"
            f"{r.n_x:>5}{100 * r.hamming_distance:>8.2f}"
        )
    if rows:
        avg = sum(r.hamming_distance for r in rows) / len(rows)
        lines.append(f"{'average':<10}{'':>5}{'':>8}{'':>5}{100 * avg:>8.2f}")
    return "\n".join(lines)
