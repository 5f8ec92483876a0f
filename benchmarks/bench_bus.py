"""Job-bus bench: socket fan-out vs serial, with overhead per job.

Runs a >= 4-job smoke-derived fig7 grid (two benchmarks x two schemes x
two key sizes -> 8 unique attacks) through two execution paths:

* **serial**  — ``ExperimentRunner(jobs=0)``, the reproducible baseline;
* **socket**  — ``WORKERS`` real ``repro worker --serve-addr`` processes
  connected to the coordinator's in-process serve endpoint.

Both paths must produce **bit-identical** record fingerprints
(asserted).  Wall-clock per path plus the coordinator's pure bus
overhead per job (submit + adopt seconds — never worker compute, from
:class:`repro.bus.BusStats`) is printed and recorded under the
``bench_bus`` section of ``BENCH_training.json`` (its older entries
also carry a ``spool`` leg, from before that bus was removed).

``REPRO_BENCH_BUS_MIN_SPEEDUP`` (default ``0`` = no gate; the multicore
ROADMAP run uses ``2``) arms a floor on the distributed speedup — the
job-level fan-out is where this host's cores pay off, per the measured
``auto`` worker policy in ``repro.experiments.common``.

Run standalone::

    REPRO_BENCH_BUS_MIN_SPEEDUP=2 python benchmarks/bench_bus.py

or under pytest::

    pytest benchmarks/bench_bus.py -s
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from perf_record import update_record
from repro.bus import SocketBus
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    record_fingerprint,
)
from repro.store import ArtifactStore

WORKERS = int(os.environ.get("REPRO_BENCH_BUS_WORKERS", "4"))
#: 0 disables the gate (CI containers are too small to win); the
#: multicore measurement run arms it at 2.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_BUS_MIN_SPEEDUP", "0"))

#: >= 4 unique jobs: 2 benchmarks x 2 schemes x 2 key sizes.  The hop
#: count, circuit scale, and epoch budget are raised well past smoke so
#: each job carries ~2s of real work — the fan-out bench measures job
#: distribution, and sub-second jobs would measure codec and poll
#: latency instead of what the bus buys on a multicore host.
GRID_SCALE = replace(
    SMOKE_SCALE,
    name="bench-bus",
    iscas=("c1355", "c1908"),
    iscas_keys=(6, 8),
    h=3,
    circuit_scale_iscas=float(os.environ.get("REPRO_BENCH_BUS_SCALE", "0.3")),
    epochs=int(os.environ.get("REPRO_BENCH_BUS_EPOCHS", "15")),
)

_SRC_ROOT = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC_ROOT, "PYTHONHASHSEED": "0"}


def _start_workers(args: list[str]) -> list[subprocess.Popen]:
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-u",  # pipe stdout is block-buffered; the readiness
                "-m",  # handshake below needs the first log line now
                "repro.cli",
                "worker",
                "--poll",
                "0.05",
                "--idle-timeout",
                "600",
                *args,
            ],
            env=_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for _ in range(WORKERS)
    ]
    # Each worker logs one line the moment its imports finish and the
    # loop starts; waiting for it keeps interpreter startup out of the
    # timed section — a deployed worker fleet is long-lived.
    for worker in workers:
        worker.stdout.readline()
    return workers


def _stop_workers(workers: list[subprocess.Popen]) -> None:
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.wait(timeout=60)


def _timed_run(runner: ExperimentRunner, cells) -> tuple[list, float]:
    start = time.perf_counter()
    records = runner.run(cells)
    seconds = time.perf_counter() - start
    return [record_fingerprint(r) for r in records], seconds


def _overhead_ms(bus) -> float:
    if not bus.stats.completed:
        return 0.0
    return (
        (bus.stats.submit_seconds + bus.stats.adopt_seconds)
        / bus.stats.completed
        * 1000.0
    )


def test_bus_fanout_speedup_and_overhead():
    cells = fig7_cells(GRID_SCALE, seed=0)
    cores = os.cpu_count()

    serial = ExperimentRunner(jobs=0)
    reference, serial_s = _timed_run(serial, cells)
    jobs = serial.stats.attacks_computed
    assert jobs >= 4, f"grid too small for a fan-out bench ({jobs} jobs)"
    serial.close()
    print(
        f"\n[bench_bus] {jobs} jobs, {WORKERS} workers, {cores} cores: "
        f"serial {serial_s:.1f}s"
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        socket_store = ArtifactStore(tmp / "store-socket")
        bus = SocketBus(poll=0.05, timeout=600)
        workers = _start_workers(["--serve-addr", bus.address])
        try:
            runner = ExperimentRunner(store=socket_store, bus=bus)
            socket_fp, socket_s = _timed_run(runner, cells)
            socket_overhead = _overhead_ms(runner.bus)
            runner.close()
        finally:
            _stop_workers(workers)
        assert socket_fp == reference, "socket results diverged from serial"

    socket_speedup = serial_s / socket_s
    print(
        f"  socket: {socket_s:.1f}s ({socket_speedup:.2f}x), "
        f"bus overhead {socket_overhead:.1f}ms/job"
    )

    update_record(
        "bench_bus",
        {
            "jobs": jobs,
            "workers": WORKERS,
            "cores": cores,
            "serial_s": round(serial_s, 2),
            "serial_s_per_job": round(serial_s / jobs, 3),
            "socket": {
                "seconds": round(socket_s, 2),
                "speedup": round(socket_speedup, 2),
                "bus_overhead_ms_per_job": round(socket_overhead, 2),
            },
            "bit_identical": True,
            "min_speedup_gate": MIN_SPEEDUP,
        },
    )
    if MIN_SPEEDUP:
        assert socket_speedup >= MIN_SPEEDUP, (
            f"socket bus {socket_speedup:.2f}x over serial; "
            f"needs >= {MIN_SPEEDUP}x with {WORKERS} workers on "
            f"{cores} cores"
        )


if __name__ == "__main__":
    test_bus_fanout_speedup_and_overhead()
    print("bench_bus: OK")
