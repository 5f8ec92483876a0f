"""Tests for the experiment layer: presets plus end-to-end figure drivers.

Every figure driver (``run_fig7`` .. ``run_fig10``) runs end-to-end under
the ``SMOKE`` preset (one tiny benchmark, one key size, two epochs), with
record shapes and metric ranges asserted.  The engine-level guarantees
(parallel parity, cache reuse, per-cell seeding) live in
``tests/core/test_runner.py``.
"""

import math

import pytest

from repro.experiments import (
    CI_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    ExperimentRunner,
    ExperimentScale,
    active_scale,
    format_fig2,
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    lock_with,
    make_cell,
    run_fig2,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    scale_by_name,
    summarize_fig7,
)
from repro.experiments.common import format_records
from repro.locking import DMUX_SCHEME, SYMMETRIC_SCHEME
from repro.settings import SettingsError


@pytest.fixture(scope="module")
def shared_runner():
    """One cache-warm runner for the whole module, like ``repro figures``."""
    with ExperimentRunner(jobs=0) as runner:
        yield runner


def test_scale_presets_and_env(monkeypatch):
    assert SMOKE_SCALE.name == "smoke"
    assert CI_SCALE.name == "ci"
    assert PAPER_SCALE.name == "paper"
    assert PAPER_SCALE.iscas_keys == (64, 128, 256)
    assert len(SMOKE_SCALE.iscas) == 1 and SMOKE_SCALE.epochs == 2
    monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
    assert active_scale() is CI_SCALE
    monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "paper")
    assert active_scale() is PAPER_SCALE
    monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "smoke")
    assert active_scale() is SMOKE_SCALE
    assert active_scale("paper") is PAPER_SCALE  # explicit beats the env
    monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "smok")
    with pytest.raises(SettingsError, match="REPRO_EXPERIMENT_SCALE='smok'"):
        active_scale()  # a typo never falls back to CI


def test_scale_by_name():
    assert scale_by_name("smoke") is SMOKE_SCALE
    assert scale_by_name("CI") is CI_SCALE
    with pytest.raises(KeyError):
        scale_by_name("nope")


def test_scale_benchmark_enumeration():
    rows = CI_SCALE.benchmarks()
    names = [r[0] for r in rows]
    assert names == list(CI_SCALE.iscas) + list(CI_SCALE.itc)
    for _, scale, keys in rows:
        assert 0 < scale <= 1
        assert keys


def test_lock_with_dispatch():
    from repro.benchgen import load_benchmark

    base = load_benchmark("c1355", scale=0.1)
    locked = lock_with(DMUX_SCHEME, base, key_size=4, seed=0)
    assert locked.scheme == DMUX_SCHEME
    with pytest.raises(KeyError):
        lock_with("nope", base, key_size=4)


def test_cell_record(tmp_path):
    cell = make_cell(
        SMOKE_SCALE, "c1355", SMOKE_SCALE.circuit_scale_iscas, DMUX_SCHEME, 6,
        seed=0,
    )
    (record,) = ExperimentRunner(jobs=0, store=tmp_path).run([cell])
    assert record.benchmark == "c1355"
    assert record.metrics.n_total == 6
    assert len(record.predicted_key) == 6
    assert record.runtime_seconds > 0
    assert record.extras["kind"] == "attack"
    table = format_records([record], "t")
    assert "c1355" in table


def test_fig2_runner_smoke():
    rows = run_fig2(
        ExperimentRunner(jobs=0), scale=SMOKE_SCALE, n_copies=2, key_size=6, seed=1
    )
    # 1 benchmark x 2 schemes x 2 attacks
    assert len(rows) == 4
    assert {r.attack for r in rows} == {"SCOPE", "SWEEP"}
    for row in rows:
        assert 0.0 <= row.metrics.accuracy <= 1.0
    assert "Fig. 2" in format_fig2(rows)


# ---------------------------------------------------------------------------
# End-to-end figure drivers under SMOKE
# ---------------------------------------------------------------------------
def test_fig7_end_to_end(shared_runner):
    records = run_fig7(scale=SMOKE_SCALE, seed=0, runner=shared_runner)
    # 1 benchmark x 1 key size x 2 schemes
    assert len(records) == 2
    assert {r.scheme for r in records} == {DMUX_SCHEME, SYMMETRIC_SCHEME}
    for record in records:
        assert record.benchmark in SMOKE_SCALE.iscas
        assert record.key_size in SMOKE_SCALE.iscas_keys
        assert record.metrics.n_total == record.key_size
        assert len(record.predicted_key) == record.key_size
        assert set(record.predicted_key) <= {"0", "1", "x"}
        assert 0.0 <= record.metrics.accuracy <= 1.0
        assert 0.0 <= record.metrics.precision <= 1.0
        assert record.runtime_seconds > 0
    summary = summarize_fig7(records)
    assert set(summary) >= {"accuracy", "precision", "kpa"}
    assert not math.isnan(summary["accuracy"])
    assert "Summary" in format_fig7(records)


def test_fig8_end_to_end(shared_runner):
    rows = run_fig8(scale=SMOKE_SCALE, seed=0, runner=shared_runner)
    assert [r.benchmark for r in rows] == list(SMOKE_SCALE.iscas)
    for row in rows:
        assert row.key_size == max(SMOKE_SCALE.iscas_keys)
        assert 0.0 <= row.accuracy <= 1.0
        assert 0 <= row.n_x <= row.key_size
        assert 0.0 <= row.hamming_distance <= 1.0
    assert "Fig. 8" in format_fig8(rows)


def test_fig9_end_to_end(shared_runner):
    thresholds = (0.0, 0.5, 1.0)
    rows = run_fig9(
        scale=SMOKE_SCALE, thresholds=thresholds, seed=0, runner=shared_runner
    )
    assert len(rows) == 2 * len(thresholds)  # 2 schemes x thresholds
    for row in rows:
        assert row.threshold in thresholds
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.precision <= 1.0
        assert 0.0 <= row.decision_rate <= 1.0
    # th = 1 forces full abstention -> PC = 100 %.
    final = [r for r in rows if r.threshold == 1.0]
    assert len(final) == 2
    assert all(r.precision == 1.0 for r in final)
    assert "Fig. 9" in format_fig9(rows)


def test_fig10_end_to_end(shared_runner):
    hops = (1, 2)
    rows = run_fig10(scale=SMOKE_SCALE, hops=hops, seed=0, runner=shared_runner)
    assert [r.h for r in rows] == list(hops)
    for row in rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.precision <= 1.0
        assert row.runtime_seconds > 0
    assert "Fig. 10" in format_fig10(rows)


def test_formatters_handle_empty_gracefully():
    assert "Fig. 8" in format_fig8([])
    assert "Fig. 10" in format_fig10([])
