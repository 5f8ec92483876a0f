"""Experiment runners regenerating every figure of the paper.

Figure grids are declarative lists of
:class:`~repro.experiments.runner.Cell`, one type for MuxLink and
baseline attacks alike, and every driver runs its grid on the
cache-aware :class:`~repro.experiments.runner.ExperimentRunner` it is
given (``REPRO_JOBS`` / ``repro figures --jobs N``); share one runner
across figures to reuse locked netlists and trained attacks.  Each
unique attack the runner does not hold runs as one
:class:`repro.jobs.Job`, whatever its kind.
"""

from repro.experiments.common import (
    CI_SCALE,
    PAPER_SCALE,
    SCALES,
    SMOKE_SCALE,
    AttackRecord,
    ExperimentScale,
    active_scale,
    format_records,
    lock_with,
    scale_by_name,
)
from repro.experiments.fig2 import Fig2Row, fig2_cells, format_fig2, run_fig2
from repro.experiments.fig7 import fig7_cells, format_fig7, run_fig7, summarize_fig7
from repro.experiments.fig8 import Fig8Row, fig8_cells, format_fig8, run_fig8
from repro.experiments.fig9 import Fig9Row, fig9_cells, format_fig9, run_fig9
from repro.experiments.fig10 import (
    Fig10Row,
    fig10_cells,
    format_fig10,
    run_fig10,
)
from repro.experiments.leaderboard import (
    ENSEMBLE_ATTACKS,
    LEADERBOARD_ATTACKS,
    LeaderboardRow,
    format_leaderboard,
    run_leaderboard,
)
from repro.experiments.runner import (
    Cell,
    ExperimentRunner,
    RunnerStats,
    make_baseline_cell,
    make_cell,
    record_fingerprint,
    resolve_jobs,
)

__all__ = [
    "ExperimentScale",
    "SMOKE_SCALE",
    "CI_SCALE",
    "PAPER_SCALE",
    "SCALES",
    "active_scale",
    "scale_by_name",
    "AttackRecord",
    "lock_with",
    "format_records",
    "Cell",
    "ExperimentRunner",
    "RunnerStats",
    "make_baseline_cell",
    "make_cell",
    "record_fingerprint",
    "resolve_jobs",
    "run_fig2",
    "fig2_cells",
    "format_fig2",
    "Fig2Row",
    "LEADERBOARD_ATTACKS",
    "ENSEMBLE_ATTACKS",
    "LeaderboardRow",
    "run_leaderboard",
    "format_leaderboard",
    "fig7_cells",
    "run_fig7",
    "format_fig7",
    "summarize_fig7",
    "fig8_cells",
    "run_fig8",
    "format_fig8",
    "Fig8Row",
    "fig9_cells",
    "run_fig9",
    "format_fig9",
    "Fig9Row",
    "fig10_cells",
    "run_fig10",
    "format_fig10",
    "Fig10Row",
]
