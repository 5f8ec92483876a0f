"""Store-backed runner: resumable ``repro figures`` across processes.

The acceptance contract of the artifact store:

* a **cold** ``repro figures --figures 7 8 9 10 --scale smoke --store D``
  populates the store;
* a **warm** rerun *in a different process* performs **zero lock and
  zero train jobs** (asserted on :class:`RunnerStats`);
* every figure output is **bit-identical** to the serial in-memory path
  (no store at all) — fingerprints and formatted tables alike;
* failure modes degrade, never crash: corrupt entries recompute with a
  warning, a schema bump ignores old entries, config changes miss.
"""

import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.core import MuxLinkConfig, rescore_key, run_muxlink
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    make_cell,
    record_fingerprint,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)
from repro.jobs import get_or_compute, make_job
from repro.linkpred import TrainConfig
from repro.locking import DMUX_SCHEME
from repro.store import ArtifactStore, SCHEMA_VERSION

_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])
_FIGURES_ARGS = ["figures", "--figures", "7", "8", "9", "10", "--scale", "smoke"]


def _figures_cli_in_fresh_process(store_dir) -> str:
    """Run ``repro figures`` in a separate interpreter; return stdout."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *_FIGURES_ARGS, "--store", str(store_dir)],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": _SRC_ROOT,
            "PYTHONHASHSEED": "0",
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _figure_blocks(stdout: str, mask_runtime: bool = False) -> str:
    """The figure tables only — bookkeeping lines and spacing stripped.

    ``mask_runtime`` blanks the wall-clock ``sec`` / ``runtime(s)``
    columns (fig7 / fig10): a warm store run reproduces the *stored*
    runtimes bit for bit, but a store-less reference run measures its
    own wall clock, which can never match exactly.
    """
    lines = [
        line
        for line in stdout.splitlines()
        if line.strip()
        and not line.startswith(("runner:", "store:", "store=", "scale="))
    ]
    if mask_runtime:
        lines = [re.sub(r"\d+\.\d$", "<sec>", line) for line in lines]
    return "\n".join(lines)


def _run_all_figures(runner, mask_runtime: bool = False) -> str:
    text = "\n".join(
        [
            format_fig7(run_fig7(scale=SMOKE_SCALE, seed=0, runner=runner)),
            format_fig8(run_fig8(scale=SMOKE_SCALE, seed=0, runner=runner)),
            format_fig9(run_fig9(scale=SMOKE_SCALE, seed=0, runner=runner)),
            format_fig10(run_fig10(scale=SMOKE_SCALE, seed=0, runner=runner)),
        ]
    )
    return _figure_blocks(text, mask_runtime=mask_runtime)


def test_cold_then_warm_figures_across_processes(tmp_path):
    store_dir = tmp_path / "store"

    # Serial in-memory reference: no store anywhere near it.  Wall-clock
    # columns are masked — everything computed is compared exactly.
    reference = _run_all_figures(ExperimentRunner(jobs=0), mask_runtime=True)

    # Cold run in a separate process populates the store.
    cold_out = _figures_cli_in_fresh_process(store_dir)
    assert ArtifactStore(store_dir).schema_dir.is_dir()
    assert _figure_blocks(cold_out, mask_runtime=True).strip() == reference.strip()

    # Warm run, this process: all artifacts come from the store.
    warm = ExperimentRunner(jobs=0, store=store_dir)
    warm_text = _run_all_figures(warm, mask_runtime=True)
    assert warm.stats.locks_computed == 0, "warm run re-locked"
    assert warm.stats.attacks_computed == 0, "warm run re-trained"
    assert warm.stats.locks_loaded > 0 and warm.stats.attacks_loaded > 0
    assert warm.store.stats.writes == 0
    assert warm_text.strip() == reference.strip()

    # A warm rerun through the CLI (third process) reproduces the cold
    # run's output *bit for bit* — runtimes included, because they are
    # part of the stored artifact, not re-measured.
    warm_out = _figures_cli_in_fresh_process(store_dir)
    assert _figure_blocks(warm_out) == _figure_blocks(cold_out)


def test_warm_runner_matches_fingerprints_without_store(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    reference = [record_fingerprint(r) for r in ExperimentRunner(jobs=0).run(cells)]

    cold = ExperimentRunner(jobs=0, store=tmp_path)
    assert [record_fingerprint(r) for r in cold.run(cells)] == reference
    assert cold.stats.attacks_computed == 2 and cold.store.stats.writes == 4

    warm = ExperimentRunner(jobs=0, store=tmp_path)
    assert [record_fingerprint(r) for r in warm.run(cells)] == reference
    assert warm.stats.locks_computed == 0
    assert warm.stats.attacks_computed == 0
    assert warm.stats.locks_loaded == 2 and warm.stats.attacks_loaded == 2


def test_corrupt_store_entry_recomputes_with_warning(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    cold = ExperimentRunner(jobs=0, store=tmp_path)
    reference = [record_fingerprint(r) for r in cold.run(cells)]

    # Mangle every artifact on disk; the warm runner must fall back to
    # recomputing everything — with warnings, without wrong results.
    store = ArtifactStore(tmp_path)
    for entry in store.entries():
        entry.path.write_bytes(b"bit rot")

    warm = ExperimentRunner(jobs=0, store=tmp_path)
    with pytest.warns(RuntimeWarning, match="unreadable"):
        records = warm.run(cells)
    assert [record_fingerprint(r) for r in records] == reference
    assert warm.stats.locks_computed == 2
    assert warm.stats.attacks_computed == 2
    # The recompute healed the entries: a third runner loads them clean.
    healed = ExperimentRunner(jobs=0, store=tmp_path)
    assert [record_fingerprint(r) for r in healed.run(cells)] == reference
    assert healed.stats.attacks_computed == 0


def test_schema_bump_ignores_but_does_not_crash(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    cold = ExperimentRunner(jobs=0, store=ArtifactStore(tmp_path))
    reference = [record_fingerprint(r) for r in cold.run(cells)]

    bumped = ExperimentRunner(
        jobs=0, store=ArtifactStore(tmp_path, schema=SCHEMA_VERSION + 1)
    )
    records = bumped.run(cells)
    assert [record_fingerprint(r) for r in records] == reference
    assert bumped.stats.attacks_computed == 2  # old entries invisible
    assert bumped.stats.locks_loaded == 0 and bumped.stats.attacks_loaded == 0


def test_config_change_misses_the_store(tmp_path):
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0)
    (record,) = ExperimentRunner(jobs=0, store=tmp_path).run([cell])
    assert record.metrics.n_total == 6

    # Same identity, different training budget: a different artifact.
    import dataclasses

    more_epochs = dataclasses.replace(
        cell,
        config=dataclasses.replace(
            cell.config,
            train=dataclasses.replace(cell.config.train, epochs=3),
        ),
    )
    runner = ExperimentRunner(jobs=0, store=tmp_path)
    runner.run([more_epochs])
    assert runner.stats.attacks_computed == 1
    assert runner.stats.locks_loaded == 1  # the lock is config-independent


def test_threshold_change_hits_the_store_and_rescored(tmp_path):
    """Fig. 9 semantics survive persistence: the threshold is normalized
    out of the attack key, and a rematerialized artifact is re-thresholded
    at the requesting cell's own ``th``."""
    base = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0)
    swept = make_cell(
        SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0, threshold=1.0
    )
    reference = ExperimentRunner(jobs=0).run([base, swept])

    ExperimentRunner(jobs=0, store=tmp_path).run([base])
    warm = ExperimentRunner(jobs=0, store=tmp_path)
    records = warm.run([base, swept])
    assert warm.stats.attacks_computed == 0
    assert warm.stats.attacks_loaded == 1
    assert [record_fingerprint(r) for r in records] == [
        record_fingerprint(r) for r in reference
    ]
    # th=1.0 leaves every bit undecided at SMOKE scale — proof the
    # rescoring actually ran against the cached likelihoods.
    assert records[1].predicted_key == "x" * 6


def test_attack_job_store_hit_skips_training(tmp_path):
    from repro.benchgen import load_benchmark
    from repro.locking import lock_dmux

    locked = lock_dmux(load_benchmark("c1355", scale=0.1), key_size=6, seed=1)
    config = MuxLinkConfig(h=1, train=TrainConfig(epochs=2, seed=0), seed=0)
    store = ArtifactStore(tmp_path)

    cold = get_or_compute(make_job("attack", locked.circuit, config), store)
    assert store.stats.writes == 1
    assert cold.predicted_key == run_muxlink(locked.circuit, config).predicted_key
    warm_store = ArtifactStore(tmp_path)
    warm = get_or_compute(make_job("attack", locked.circuit, config), warm_store)
    assert warm_store.stats.hits == 1 and warm_store.stats.writes == 0
    assert warm.predicted_key == cold.predicted_key
    assert warm.history.train_loss == cold.history.train_loss
    assert [s.likelihoods for s in warm.scored] == [
        s.likelihoods for s in cold.scored
    ]
    assert warm.graph is None  # rematerialized, not retrained

    # A different threshold still hits; post-processing re-runs on it.
    import dataclasses

    relaxed = dataclasses.replace(config, threshold=1.0)
    relaxed_store = ArtifactStore(tmp_path)
    undecided = get_or_compute(
        make_job("attack", locked.circuit, relaxed), relaxed_store
    )
    assert relaxed_store.stats.hits == 1
    assert rescore_key(undecided, 1.0) == "x" * len(cold.predicted_key)


def test_pooled_store_backed_run_matches_serial(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    serial = ExperimentRunner(jobs=0).run(cells)
    with ExperimentRunner(jobs=2, store=tmp_path) as pooled:
        records = pooled.run(cells)
    assert [record_fingerprint(r) for r in records] == [
        record_fingerprint(r) for r in serial
    ]
    # The artifacts the workers shipped back landed in the store ...
    with ExperimentRunner(jobs=2, store=tmp_path) as warm:
        warm_records = warm.run(cells)
        assert warm.stats.attacks_computed == 0
    assert [record_fingerprint(r) for r in warm_records] == [
        record_fingerprint(r) for r in serial
    ]


def test_cli_attack_and_runner_share_one_pool(tmp_path):
    """`repro attack --store` and the figure runner derive the same
    content address for the same canonical netlist: the attack the
    runner trained is reused by an attack job on the round-tripped BENCH
    file (the CLI path), with zero retraining."""
    from repro.netlist import dump_bench, load_bench

    store_dir = tmp_path / "store"
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, DMUX_SCHEME, 6, seed=0)
    runner = ExperimentRunner(jobs=0, store=store_dir)
    record = runner.run([cell])[0]
    assert runner.stats.attacks_computed == 1

    bench_path = tmp_path / "locked.bench"
    locked = record.extras["locked"]
    dump_bench(locked.circuit, bench_path, key=locked.key)
    reparsed, _ = load_bench(bench_path)

    store = ArtifactStore(store_dir)
    result = get_or_compute(make_job("attack", reparsed, cell.config), store)
    assert store.stats.hits == 1 and store.stats.writes == 0
    assert result.graph is None  # rematerialized, not retrained
    assert result.predicted_key == record.predicted_key
