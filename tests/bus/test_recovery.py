"""Worker-death recovery: leases expire, jobs requeue, poison quarantines.

The robustness contract of the distributed buses:

* a SIGKILLed spool worker's lease goes stale (its heartbeat stops),
  any peer reaps it back to pending, and another worker completes the
  job — with the final figure table bit-identical to serial execution;
* a deterministically crashing job burns its attempt budget and lands in
  quarantine with the traceback persisted; the coordinator surfaces that
  traceback instead of looping forever;
* a ``--serve-addr`` worker that drops its connection to a socket-bus
  coordinator mid-job has the job requeued and completed by a healthy
  worker.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.benchgen import load_benchmark
from repro.bus import BusError, SocketBus, SpoolBus, SpoolDir, run_worker
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    format_fig7,
    record_fingerprint,
    run_fig7,
)
from repro.experiments.common import lock_with
from repro.experiments.runner import AttackJob
from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultSite
from repro.store import (
    ArtifactStore,
    attack_store_key,
    circuit_digest,
    encode_circuit,
)
from repro.wire import recv_message, send_message

_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])
_STALE = 1.5


def _mask_runtime(table: str) -> str:
    """Blank the wall-clock column: a worker measures its own runtime."""
    return "\n".join(
        re.sub(r"\d+\.\d$", "<sec>", line) for line in table.splitlines()
    )


def _pending_jobs(cells) -> list[AttackJob]:
    """The unique AttackJobs of a cell grid (what the runner would enqueue)."""
    jobs = {}
    for cell in cells:
        base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
        locked = lock_with(
            cell.scheme, base, key_size=cell.key_size, seed=cell.lock_seed
        )
        key = attack_store_key(circuit_digest(locked.circuit), cell.config)
        jobs.setdefault(
            key,
            AttackJob(
                store_key=key,
                circuit=encode_circuit(locked.circuit),
                config=cell.config,
            ),
        )
    return list(jobs.values())


def _start_worker(spool_dir, store_dir, stall: float | None = None):
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": _SRC_ROOT,
        "PYTHONHASHSEED": "0",
    }
    if stall is not None:
        plan = FaultPlan(
            "stall", (FaultSite("worker.slow_factor", times=1, param=stall),)
        )
        env[FAULT_PLAN_ENV] = plan.dumps()
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--bus-dir",
            str(spool_dir),
            "--store",
            str(store_dir),
            "--poll",
            "0.1",
            "--stale-after",
            str(_STALE),
            "--idle-timeout",
            "120",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def test_sigkilled_worker_lease_is_reaped_and_job_completed(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    reference = [
        record_fingerprint(r) for r in ExperimentRunner(jobs=0).run(cells)
    ]
    serial_table = format_fig7(
        run_fig7(scale=SMOKE_SCALE, seed=0, runner=ExperimentRunner(jobs=0))
    )

    store = ArtifactStore(tmp_path / "store")
    spool = SpoolDir(tmp_path / "spool", stale_after=_STALE)
    jobs = _pending_jobs(cells)
    for job in jobs:
        from repro.bus import encode_job

        assert spool.enqueue(job.store_key, encode_job(job))

    # The victim leases a job and then stalls inside the heartbeat scope
    # (the worker.slow_factor fault site); SIGKILL stops its heartbeat dead.
    victim = _start_worker(spool.root, store.root, stall=60.0)
    try:
        deadline = time.monotonic() + 60
        while not spool.leased_keys():
            assert time.monotonic() < deadline, "victim never leased a job"
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=30)
    assert spool.leased_keys(), "lease should still be held by the corpse"
    # Let the corpse's lease go stale before any peer exists: the
    # coordinator's first poll then reaps it while the survivor is still
    # starting up.  Otherwise a survivor that finishes its own job before
    # the lease expires can win the reap race, and the coordinator's
    # requeue counter never sees the reap.
    time.sleep(_STALE + 0.5)

    survivor = _start_worker(spool.root, store.root)
    bus = SpoolBus(spool, store, poll=0.1, timeout=90)
    try:
        results = {job.store_key: payload for job, payload, _ in bus.run(jobs)}
    finally:
        survivor.terminate()
        survivor.wait(timeout=30)
    assert set(results) == {job.store_key for job in jobs}
    assert bus.stats.requeues >= 1, "the dead worker's lease was never reaped"
    assert bus.stats.completed == len(jobs)
    assert spool.quarantined() == []

    # The final figure table, materialized from what the surviving
    # worker computed, is bit-identical to serial execution.
    warm = ExperimentRunner(jobs=0, store=store)
    assert [record_fingerprint(r) for r in warm.run(cells)] == reference
    assert warm.stats.attacks_computed == 0  # everything adopted
    warm_table = format_fig7(run_fig7(scale=SMOKE_SCALE, seed=0, runner=warm))
    assert _mask_runtime(warm_table) == _mask_runtime(serial_table)


def test_poisoned_job_quarantines_with_persisted_traceback(tmp_path):
    """A job that deterministically crashes must not ping-pong forever:
    it burns ``max_attempts`` and the coordinator raises the stored
    worker traceback."""
    store = ArtifactStore(tmp_path / "store")
    spool = SpoolDir(tmp_path / "spool", stale_after=30.0, max_attempts=2)
    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    poisoned = AttackJob(
        store_key="f" * 16,
        circuit={"not": "a circuit"},  # decode_circuit will raise
        config=cell.config,
    )

    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(
            bus_dir=spool.root,
            store=store,
            poll=0.05,
            stale_after=30.0,
            max_attempts=2,
            idle_timeout=30.0,
            log=lambda *a: None,
        ),
        daemon=True,
    )
    worker.start()
    bus = SpoolBus(spool, store, poll=0.05, timeout=60)
    with pytest.raises(BusError) as excinfo:
        list(bus.run([poisoned]))
    worker.join(timeout=60)
    message = str(excinfo.value)
    assert "quarantined after 2 attempt(s)" in message
    assert "Traceback" in message  # the worker's persisted traceback
    (entry,) = spool.quarantined()
    assert entry.key == poisoned.store_key
    assert entry.attempts == 2
    assert "Traceback" in entry.traceback


def test_socket_poisoned_job_quarantines_with_traceback():
    """Socket-mode twin of the spool poisoned-job test: a job that
    deterministically crashes on a real serve worker must burn its
    attempt budget and raise the last shipped worker traceback, not
    requeue at attempt 0 forever."""
    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    poisoned = AttackJob(
        store_key="f" * 16,
        circuit={"not": "a circuit"},  # decode_circuit will raise
        config=cell.config,
    )
    bus = SocketBus(poll=0.05, max_attempts=2, timeout=60)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(
            serve_addr=bus.address,
            poll=0.05,
            idle_timeout=5.0,
            log=lambda *a: None,
        ),
        daemon=True,
    )
    worker.start()
    try:
        with pytest.raises(BusError) as excinfo:
            list(bus.run([poisoned]))
    finally:
        bus.close()
        worker.join(timeout=30)
    message = str(excinfo.value)
    assert "failed 2 time(s)" in message
    assert "Traceback" in message  # the worker's shipped traceback
    assert bus.stats.requeues == 1  # attempt 0 → 1, then quarantine
    assert bus.stats.quarantined == 1


def test_socket_connection_drop_requeues_to_healthy_worker(tmp_path):
    """A worker that vanishes mid-job (connection EOF) has its job
    requeued; a healthy serve worker completes it and results match
    serial."""
    cells = fig7_cells(SMOKE_SCALE, seed=0)[:1]
    reference = [
        record_fingerprint(r) for r in ExperimentRunner(jobs=0).run(cells)
    ]

    bus = SocketBus(poll=0.1, max_attempts=3, timeout=60)
    host, port = bus.address.rsplit(":", 1)

    def flaky_then_healthy():
        # Flaky worker: take one pushed job, then hang up without
        # finishing it.
        import socket as socketlib

        with socketlib.create_connection((host, int(port))) as conn:
            send_message(
                conn, {"op": "hello", "role": "worker", "pipeline": 1}
            )
            message = recv_message(conn)
            assert message["op"] == "job"
        # Healthy worker: runs the real loop until the job is done.
        run_worker(
            serve_addr=bus.address,
            poll=0.05,
            idle_timeout=20.0,
            max_jobs=1,
            log=lambda *a: None,
        )

    thread = threading.Thread(target=flaky_then_healthy, daemon=True)
    thread.start()
    runner = ExperimentRunner(jobs=0, store=tmp_path / "store", bus=bus)
    try:
        records = runner.run(cells)
        assert [record_fingerprint(r) for r in records] == reference
        assert bus.stats.requeues >= 1
        assert bus.stats.completed == 1
    finally:
        thread.join(timeout=60)
        runner.close()
