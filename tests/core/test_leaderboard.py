"""The resilience leaderboard and the cell-grid fig. 2 driver."""

import math

from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig2_cells,
    format_fig2,
    format_leaderboard,
    record_fingerprint,
    run_fig2,
    run_leaderboard,
)

N_SMOKE_GRID = 2  # schemes × (1 smoke benchmark) × (1 smoke key size)


def leaderboard_fingerprint(rows) -> tuple:
    """Runtime-free digest of a leaderboard, equal across runs of the
    same grid."""
    return tuple(
        (
            r.benchmark,
            r.scheme,
            r.key_size,
            r.attack,
            r.predicted_key,
            r.metrics.n_total,
            r.metrics.n_correct,
            r.metrics.n_wrong,
            r.metrics.n_x,
        )
        for r in rows
    )


# ------------------------------------------------------------ leaderboard
def test_leaderboard_smoke_structure():
    rows = run_leaderboard(ExperimentRunner(jobs=0), scale=SMOKE_SCALE, seed=0)
    assert len(rows) == N_SMOKE_GRID * 5  # full default roster
    assert [r.attack for r in rows[:5]] == [
        "muxlink", "saam", "scope", "sweep", "random",
    ]
    assert {r.scheme for r in rows} == {"D-MUX", "Symmetric-MUX"}
    for row in rows:
        assert len(row.predicted_key) == row.key_size
        assert row.runtime_seconds >= 0.0
    table = format_leaderboard(rows)
    assert "Resilience leaderboard" in table
    assert "MuxLink" in table and "SWEEP" in table
    assert "Summary (pooled KPA per scheme × attack):" in table


def test_leaderboard_ensemble_rows():
    rows = run_leaderboard(
        ExperimentRunner(jobs=0),
        scale=SMOKE_SCALE,
        seed=0,
        attacks=("muxlink", "scope", "muxlink+scope"),
    )
    assert len(rows) == N_SMOKE_GRID * 3
    combined = [r for r in rows if r.attack == "muxlink+scope"]
    assert len(combined) == N_SMOKE_GRID
    for row in combined:
        assert len(row.predicted_key) == row.key_size
        assert not math.isnan(row.metrics.accuracy)
    assert "MuxLink+SCOPE" in format_leaderboard(rows)


def test_leaderboard_warm_store_runs_nothing(tmp_path):
    """A second leaderboard over the same store, in a fresh runner,
    adopts every lock, MuxLink attack and baseline report; the cold
    store-backed run equals a store-less serial one."""
    with ExperimentRunner(jobs=0) as serial_runner:
        serial = run_leaderboard(scale=SMOKE_SCALE, seed=0, runner=serial_runner)
    store = tmp_path / "store"
    with ExperimentRunner(jobs=0, store=store) as cold_runner:
        cold = run_leaderboard(scale=SMOKE_SCALE, seed=0, runner=cold_runner)
        assert cold_runner.stats.baselines_computed > 0

    with ExperimentRunner(jobs=0, store=store) as warm_runner:
        warm = run_leaderboard(scale=SMOKE_SCALE, seed=0, runner=warm_runner)
        assert warm_runner.stats.locks_computed == 0
        assert warm_runner.stats.attacks_computed == 0
        assert warm_runner.stats.baselines_computed == 0
    assert leaderboard_fingerprint(cold) == leaderboard_fingerprint(serial)
    assert leaderboard_fingerprint(warm) == leaderboard_fingerprint(cold)


def test_leaderboard_shares_fig7_locks():
    """MuxLink rows attack copy 0 — the exact lock instance fig. 7 uses —
    so the leaderboard's in-memory runner re-locks nothing per scheme
    beyond the baseline training copies."""
    from repro.experiments import fig7_cells

    with ExperimentRunner(jobs=0) as runner:
        runner.run(fig7_cells(SMOKE_SCALE, seed=0))
        locks_after_fig7 = runner.stats.locks_computed
        run_leaderboard(
            scale=SMOKE_SCALE, seed=0, runner=runner, attacks=("muxlink", "scope")
        )
        # scope rides entirely on fig7's locks: no new lock jobs at all.
        assert runner.stats.locks_computed == locks_after_fig7


# ------------------------------------------------------------------ fig. 2
def test_fig2_cells_grid_shape():
    cells = fig2_cells(SMOKE_SCALE, n_copies=3, key_size=6, seed=1)
    # 2 schemes × 1 benchmark × 2 attacks × 3 copies
    assert len(cells) == 12
    assert {c.kind for c in cells} == {"baseline"}
    sweep = [c for c in cells if c.config.attack == "sweep"]
    scope = [c for c in cells if c.config.attack == "scope"]
    assert len(sweep) == len(scope) == 6
    lock_seeds = {(c.scheme, c.copy): c.lock_seed for c in cells}
    for cell in sweep:  # leave-one-out corpus, in index order
        assert cell.train_lock_seeds == tuple(
            lock_seeds[(cell.scheme, j)] for j in range(3) if j != cell.copy
        )
    for cell in scope:
        assert cell.train_lock_seeds == ()


def test_fig2_copies_use_independent_rng_streams():
    """The PR 8 bugfix: lock seeds and attack coin seeds never collide
    across copies, attacks, or neighbouring cells (the old flat
    ``seed + i`` scheme correlated all three)."""
    cells = fig2_cells(SMOKE_SCALE, n_copies=4, key_size=6, seed=0)
    lock_seeds = {(c.scheme, c.copy): c.lock_seed for c in cells}
    assert len(set(lock_seeds.values())) == len(lock_seeds)
    coin_seeds = [c.config.seed for c in cells]
    assert len(set(coin_seeds)) == len(coin_seeds)
    assert not set(coin_seeds) & set(lock_seeds.values())


def test_fig2_serial_reordered_bit_parity():
    """Serial and reversed-grid execution produce identical records —
    per-cell SeedSequence streams make order irrelevant."""
    cells = fig2_cells(SMOKE_SCALE, n_copies=2, key_size=6, seed=3)
    with ExperimentRunner(jobs=0) as runner:
        forward = runner.run(cells)
    with ExperimentRunner(jobs=0) as runner:
        backward = runner.run(list(reversed(cells)))
    assert [record_fingerprint(r) for r in forward] == [
        record_fingerprint(r) for r in reversed(backward)
    ]


def test_fig2_flat_kpa_on_resilient_schemes():
    """The paper's Fig. 2 claim: SCOPE and SWEEP hover at coin-flip KPA
    on both learning-resilient schemes."""
    rows = run_fig2(
        ExperimentRunner(jobs=0), scale=SMOKE_SCALE, n_copies=6, key_size=6, seed=0
    )
    assert len(rows) == 4
    kpas = [r.metrics.kpa for r in rows]
    for kpa in kpas:
        assert 0.2 <= kpa <= 0.8
    mean = sum(kpas) / len(kpas)
    assert 0.35 <= mean <= 0.65
    assert "Fig. 2" in format_fig2(rows)
