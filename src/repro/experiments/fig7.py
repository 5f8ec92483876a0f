"""Fig. 7 — MuxLink AC/PC/KPA across benchmarks, schemes and key sizes.

Reproduced shape claims: MuxLink scores far above the 50 % floor on both
schemes; symmetric locking is weaker than D-MUX under the same K; larger
benchmarks are easier; plus the paper's aggregate "Summary" row.
"""

from __future__ import annotations

from repro.core.metrics import aggregate_metrics
from repro.experiments.common import (
    AttackRecord,
    ExperimentScale,
    active_scale,
    format_records,
)
from repro.experiments.runner import Cell, ExperimentRunner, make_cell
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME

__all__ = ["fig7_cells", "run_fig7", "format_fig7", "summarize_fig7"]


def fig7_cells(scale: ExperimentScale, seed: int = 0) -> list[Cell]:
    """The full (benchmark × scheme × key size) grid as declarative cells."""
    return [
        make_cell(scale, name, circuit_scale, scheme, key_size, seed)
        for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME)
        for name, circuit_scale, key_sizes in scale.benchmarks()
        for key_size in key_sizes
    ]


def run_fig7(
    runner: ExperimentRunner,
    scale: ExperimentScale | None = None,
    seed: int = 0,
) -> list[AttackRecord]:
    """Run MuxLink over the full (benchmark × scheme × key size) grid.

    Cells execute through *runner*; sharing a runner across figures
    reuses its locked netlists and trained attacks.
    """
    return runner.run(fig7_cells(scale or active_scale(), seed))


def summarize_fig7(records: list[AttackRecord]) -> dict[str, float]:
    """Aggregate scores (the paper's Summary: AC 96.87 %, PC 97.50 %)."""
    pooled = aggregate_metrics([r.metrics for r in records])
    per_scheme = {}
    for scheme in (DMUX_SCHEME, SYMMETRIC_SCHEME):
        subset = [r.metrics for r in records if r.scheme == scheme]
        if subset:
            per_scheme[scheme] = aggregate_metrics(subset)
    out = {
        "accuracy": pooled.accuracy,
        "precision": pooled.precision,
        "kpa": pooled.kpa,
    }
    for scheme, metrics in per_scheme.items():
        out[f"accuracy[{scheme}]"] = metrics.accuracy
        out[f"kpa[{scheme}]"] = metrics.kpa
    return out


def format_fig7(records: list[AttackRecord]) -> str:
    table = format_records(
        records, "Fig. 7 — MuxLink on D-MUX and symmetric MUX locking"
    )
    summary = summarize_fig7(records)
    lines = [table, "", "Summary (paper: AC 96.87%, PC 97.50%):"]
    for key, value in summary.items():
        lines.append(f"  {key:<28}{value:.3f}")
    return "\n".join(lines)
