"""Tests for the cache-aware experiment engine.

Covers the three guarantees the runner makes:

* **determinism** — per-cell RNG streams are keyed on cell identity, so
  records are bit-identical across grid order, pool size and figures;
* **reuse** — locked netlists and trained attacks are cached and shared
  across cells and figure drivers (warm reruns re-lock nothing);
* **parallelism** — a run on forked workers returns exactly the serial
  records.
"""

import random

import pytest

from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    attack_benchmark,
    cell_seed_sequence,
    derive_cell_seeds,
    fig7_cells,
    fig8_cells,
    fig9_cells,
    fig10_cells,
    make_cell,
    record_fingerprint,
    resolve_jobs,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME
from repro.settings import SettingsError


# ---------------------------------------------------------------------------
# jobs resolution
# ---------------------------------------------------------------------------
def test_resolve_jobs_argument_env_and_auto(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 0
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument beats the env
    assert resolve_jobs("auto") >= 1
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs() >= 1
    with pytest.raises(SettingsError, match="jobs must be >= 0, got -1"):
        resolve_jobs(-1)


def test_runner_honours_repro_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert ExperimentRunner().jobs == 4
    assert ExperimentRunner(jobs=0).jobs == 0


# ---------------------------------------------------------------------------
# per-cell seeding
# ---------------------------------------------------------------------------
def test_cell_seeds_keyed_on_identity_not_order():
    a = derive_cell_seeds(0, "c1355", DMUX_SCHEME, 6)
    b = derive_cell_seeds(0, "c1355", DMUX_SCHEME, 6)
    assert a == b  # pure function of (seed, identity)
    # Every component of the identity — and the base seed — moves the stream.
    assert a != derive_cell_seeds(1, "c1355", DMUX_SCHEME, 6)
    assert a != derive_cell_seeds(0, "c1908", DMUX_SCHEME, 6)
    assert a != derive_cell_seeds(0, "c1355", SYMMETRIC_SCHEME, 6)
    assert a != derive_cell_seeds(0, "c1355", DMUX_SCHEME, 8)
    # Lock and train streams are themselves independent.
    assert a[0] != a[1]


def test_cell_seed_sequence_ignores_h_and_threshold():
    base = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0)
    hopped = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0, h=2)
    swept = make_cell(
        SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0, threshold=0.5
    )
    # Same locked instance across Fig. 9 / Fig. 10 style overrides ...
    assert base.lock_seed == hopped.lock_seed == swept.lock_seed
    assert base.config.train.seed == hopped.config.train.seed
    # ... while the overrides themselves land in the config.
    assert hopped.config.h == 2
    assert swept.config.threshold == 0.5
    ss = cell_seed_sequence(0, "c1355", DMUX_SCHEME, 6)
    assert ss.spawn_key  # identity-derived, not iteration-order-derived


def test_records_invariant_to_grid_order():
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    shuffled = list(cells)
    random.Random(1234).shuffle(shuffled)
    direct = ExperimentRunner(jobs=0).run(cells)
    reordered = ExperimentRunner(jobs=0).run(shuffled)
    by_id = {
        (r.benchmark, r.scheme, r.key_size): record_fingerprint(r)
        for r in reordered
    }
    for record in direct:
        key = (record.benchmark, record.scheme, record.key_size)
        assert record_fingerprint(record) == by_id[key]


def test_attack_benchmark_matches_runner_cell():
    record = attack_benchmark(
        "c1355", DMUX_SCHEME, 6, SMOKE_SCALE, 0.1, seed=0
    )
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0)
    via_runner = ExperimentRunner(jobs=0).run([cell])[0]
    assert record_fingerprint(record) == record_fingerprint(via_runner)


# ---------------------------------------------------------------------------
# serial <-> parallel parity
# ---------------------------------------------------------------------------
def test_pooled_fig7_bit_identical_to_serial():
    serial = run_fig7(scale=SMOKE_SCALE, seed=0, jobs=0)
    with ExperimentRunner(jobs=2) as pooled_runner:
        pooled = run_fig7(scale=SMOKE_SCALE, seed=0, runner=pooled_runner)
        assert pooled_runner.jobs == 2
    assert [record_fingerprint(r) for r in serial] == [
        record_fingerprint(r) for r in pooled
    ]


def test_pool_size_does_not_change_records():
    with ExperimentRunner(jobs=3) as wide:
        records_wide = wide.run(fig7_cells(SMOKE_SCALE, seed=7))
    records_serial = ExperimentRunner(jobs=0).run(fig7_cells(SMOKE_SCALE, seed=7))
    assert [record_fingerprint(r) for r in records_wide] == [
        record_fingerprint(r) for r in records_serial
    ]


# ---------------------------------------------------------------------------
# artifact cache
# ---------------------------------------------------------------------------
def test_warm_rerun_hits_cache_with_zero_relocks():
    runner = ExperimentRunner(jobs=0)
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    cold = runner.run(cells)
    locks_after_cold = runner.stats.locks_computed
    attacks_after_cold = runner.stats.attacks_computed
    assert locks_after_cold == 2  # one per scheme at SMOKE scale
    assert runner.stats.locks_reused == 0

    warm = runner.run(cells)
    assert runner.stats.locks_computed == locks_after_cold  # zero re-locks
    assert runner.stats.attacks_computed == attacks_after_cold
    assert runner.stats.locks_reused == len(cells)
    assert runner.stats.attacks_reused == len(cells)
    assert [record_fingerprint(r) for r in cold] == [
        record_fingerprint(r) for r in warm
    ]


def test_figures_share_artifacts_through_one_runner():
    runner = ExperimentRunner(jobs=0)
    run_fig7(scale=SMOKE_SCALE, seed=0, runner=runner)
    locks = runner.stats.locks_computed
    attacks = runner.stats.attacks_computed

    # Fig. 8 (D-MUX max-key ISCAS cells) and Fig. 9 (same, both schemes)
    # are sub-grids of Fig. 7: nothing new is locked or trained.
    run_fig8(scale=SMOKE_SCALE, seed=0, runner=runner)
    run_fig9(scale=SMOKE_SCALE, thresholds=(0.0, 0.5, 1.0), seed=0, runner=runner)
    assert runner.stats.locks_computed == locks
    assert runner.stats.attacks_computed == attacks

    # Fig. 10 re-attacks at new hop counts but reuses every locked netlist.
    run_fig10(scale=SMOKE_SCALE, hops=(1, 2), seed=0, runner=runner)
    assert runner.stats.locks_computed == locks
    assert runner.stats.attacks_computed == attacks + 1  # only the h=2 cell


def test_cell_lists_are_subsets_of_fig7():
    fig7_ids = {
        (c.benchmark, c.scheme, c.key_size, c.lock_seed)
        for c in fig7_cells(SMOKE_SCALE, seed=0)
    }
    for cells in (
        fig8_cells(SMOKE_SCALE, seed=0),
        fig9_cells(SMOKE_SCALE, seed=0),
        fig10_cells(SMOKE_SCALE, hops=(1, 2, 3), seed=0),
    ):
        assert {
            (c.benchmark, c.scheme, c.key_size, c.lock_seed) for c in cells
        } <= fig7_ids


def test_distinct_seeds_produce_distinct_locks():
    runner = ExperimentRunner(jobs=0)
    cells = [
        make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=s)
        for s in (0, 1)
    ]
    keys = {runner.locked_circuit(c).key for c in cells}
    assert runner.stats.locks_computed == 2
    assert len(keys) == 2 or cells[0].lock_seed != cells[1].lock_seed
