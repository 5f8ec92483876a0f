"""Graceful degradation: a dead/quiet socket bus fails over.

The liveness deadline is the coordinator's last line of defence — when
no worker makes progress for that long, the pending jobs are executed
in-process and the figure run completes instead of hanging.  The
``timeout`` knob stays the hard-stop (it raises); liveness is the soft
one (it degrades).
"""

import pytest

from repro.benchgen import load_benchmark
from repro.errors import ServeError
from repro.experiments import SMOKE_SCALE, fig7_cells, record_fingerprint
from repro.experiments.common import lock_with
from repro.experiments.runner import ExperimentRunner
from repro.experiments.socketbus import SocketBus
from repro.jobs import Job, make_job
from repro.serve import ServeStats
from repro.wire import DEFAULT_LIVENESS


def _one_job() -> Job:
    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
    locked = lock_with(
        cell.scheme, base, key_size=cell.key_size, seed=cell.lock_seed
    )
    return make_job("attack", locked.circuit, cell.config)


def test_socket_bus_fails_over_when_no_worker_ever_connects(capsys):
    job = _one_job()
    bus = SocketBus(poll=0.05, timeout=60, liveness=0.4)
    try:
        results = list(bus.run([job]))
    finally:
        bus.close()
    assert len(results) == 1
    got_job, payload = results[0]
    assert got_job is job
    assert payload is not None
    assert bus.stats.failed_over == 1
    assert bus.stats.completed == 1
    assert "failed-over=1" in bus.stats.summary()
    assert "failing 1 job(s) over to in-process execution" in (
        capsys.readouterr().out
    )


def test_socket_bus_fails_the_queue_over_back_to_back():
    """Once the liveness deadline passes with no worker, the queued jobs
    fail over one after another — not one deadline per job."""
    import time

    from repro.client import ServeClient

    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
    jobs = [
        ServeClient.job_for(
            lock_with(cell.scheme, base, key_size=cell.key_size, seed=seed)
            .circuit,
            cell.config,
        )
        for seed in range(6)
    ]
    liveness = 1.0
    # A poll well under one job's runtime: the loop sees every fail-over
    # in flight, so a clock reset by it would cost a deadline per job.
    bus = SocketBus(poll=0.01, timeout=60, liveness=liveness)
    try:
        start = time.monotonic()
        results = list(bus.run(jobs))
        elapsed = time.monotonic() - start
    finally:
        bus.close()
    assert len(results) == 6
    assert bus.stats.failed_over == 6
    assert elapsed < 2 * liveness, f"fail-over took {elapsed:.2f}s"


def test_timeout_still_raises_before_liveness_when_smaller():
    # An operator who sets a hard timeout below the liveness deadline
    # asked for an error, not a silent degradation.
    job = _one_job()
    bus = SocketBus(poll=0.05, timeout=0.3, liveness=5.0)
    try:
        with pytest.raises(ServeError, match="no progress"):
            list(bus.run([job]))
    finally:
        bus.close()
    assert bus.stats.failed_over == 0


def test_failed_over_results_match_serial_execution(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    reference = [
        record_fingerprint(r) for r in ExperimentRunner(jobs=0).run(cells)
    ]
    bus = SocketBus(poll=0.05, timeout=60, liveness=0.4)
    runner = ExperimentRunner(jobs=0, store=tmp_path / "store", bus=bus)
    try:
        records = runner.run(cells)
    finally:
        runner.close()
    assert [record_fingerprint(r) for r in records] == reference
    assert bus.stats.failed_over == bus.stats.scheduled > 0


def test_clean_bus_summary_has_no_failover_token():
    stats = ServeStats(requests=3, scheduled=3, completed=3)
    assert "failed-over" not in stats.summary()
    stats.failed_over = 2
    assert "failed-over=2" in stats.summary()


def test_liveness_zero_disables_failover():
    bus = SocketBus(liveness=0)
    try:
        assert bus.liveness is None
    finally:
        bus.close()


def test_runner_bus_fails_over_at_the_default_liveness(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BUS_ADDR", "127.0.0.1:0")
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    runner = ExperimentRunner()
    try:
        assert runner.bus.liveness == DEFAULT_LIVENESS
    finally:
        runner.close()
