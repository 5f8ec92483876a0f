"""Worker-death recovery on the socket bus: requeue and attempt budgets.

The robustness contract of distributed execution:

* a deterministically crashing job burns its attempt budget and fails
  with the last worker traceback; the coordinator raises it instead of
  looping forever;
* a ``--serve-addr`` worker that drops its connection to a socket-bus
  coordinator mid-job has the job requeued and completed by a healthy
  worker.
"""

import threading

import pytest

from repro.bus import BusError, RetryPolicy, SocketBus, run_worker
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    record_fingerprint,
)
from repro.experiments.runner import AttackJob
from repro.wire import recv_message, send_message


def test_socket_poisoned_job_quarantines_with_traceback():
    """A job that deterministically crashes on a real serve worker must
    burn its attempt budget and raise the last shipped worker traceback,
    not requeue at attempt 0 forever."""
    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    poisoned = AttackJob(
        store_key="f" * 16,
        circuit={"not": "a circuit"},  # decode_circuit will raise
        config=cell.config,
    )
    bus = SocketBus(poll=0.05, timeout=60, retry=RetryPolicy(max_attempts=2))
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

    bus = SocketBus(poll=0.1, timeout=60)
    host, port = bus.address.rsplit(":", 1)

    def flaky_then_healthy():
        # Flaky worker: take one pushed job, then hang up without
        # finishing it.
        import socket as socketlib

        with socketlib.create_connection((host, int(port))) as conn:
            send_message(conn, {"op": "hello", "role": "worker"})
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
