"""Attack-as-a-service bench: the worker fleet, warm and cold requests.

One 32-job small-job grid — a **lock-seed sweep** (one smoke cell
relocked under 32 seeds, the error-bar workload the runner fans out) —
of sub-second, uniform jobs.  Only the default sizing (4 workers, 32
seeds) makes per-job dispatch overhead a wall-clock fraction the
printed serve speedup can resolve.  At the CI sizing
(``REPRO_BENCH_SERVE_WORKERS=2``, ``REPRO_BENCH_SERVE_SWEEP_SEEDS=16``)
the whole serve sweep takes 0.3-0.5 s and its speedup spreads too
widely from run to run to compare dispatch changes; there the bench
gates serial/serve parity, zero requeues and the warm advantage.  Two
paths run the sweep:

* **serial** — ``execute_job`` in-process, the reproducible baseline;
* **serve**  — an :class:`~repro.serve.AttackServer` with ``WORKERS``
  ``repro worker --serve-addr`` processes on persistent connections,
  each pushed one job at a time.  ``repro figures --jobs N`` runs this
  same loop in-process.

Both must be **bit-identical** (asserted, timing aside).  The bench
then measures the *warm* path — p50/p95 latency and requests/s of
repeated :meth:`ServeClient.attack` hits (key first: one job-less
request, one cached result frame) against the live server — and one
**cold process**: a fresh ``repro attack --serve`` CLI invocation against the
warm server, which pays interpreter + import startup for every request.
The serving layer's pitch is exactly that ratio, and the
``REPRO_BENCH_SERVE_MIN_WARM_ADVANTAGE`` gate (default 10) enforces it.

Run standalone::

    python benchmarks/bench_serve.py

or under pytest::

    pytest benchmarks/bench_serve.py -s
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from repro.benchgen import load_benchmark
from repro.client import ServeClient
from repro.core import MuxLinkConfig
from repro.linkpred import TrainConfig
from repro.experiments import SMOKE_SCALE, fig7_cells
from repro.experiments.common import lock_with
from repro.jobs import execute_job
from repro.netlist import dump_bench
from repro.serve import AttackServer

WORKERS = int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", "4"))
WARM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_WARM_REQUESTS", "50"))
#: Warm serving must beat a cold-process CLI request by at least this
#: factor (p50 basis).  0 disarms.
MIN_WARM_ADVANTAGE = float(
    os.environ.get("REPRO_BENCH_SERVE_MIN_WARM_ADVANTAGE", "10")
)

#: Lock-seed sweep width: one smoke cell relocked under this many
#: seeds — smoke-sized work items where per-job dispatch overhead is a
#: visible fraction of the wall clock, uniform enough that the dispatch
#: gap clears the per-job training-time noise, and enough of them that
#: it accumulates past run-to-run jitter.
SWEEP_SEEDS = int(os.environ.get("REPRO_BENCH_SERVE_SWEEP_SEEDS", "32"))

_SRC_ROOT = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC_ROOT, "PYTHONHASHSEED": "0"}


def _start_workers(args: list[str]) -> list[subprocess.Popen]:
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "worker",
                "--poll", "0.05", "--idle-timeout", "600", *args,
            ],
            env=_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for _ in range(WORKERS)
    ]
    for worker in workers:  # readiness: first log line = imports done
        worker.stdout.readline()
    return workers


def _stop_workers(workers: list[subprocess.Popen]) -> None:
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.wait(timeout=60)


def _fingerprint(payload: dict):
    import numpy as np

    def canon(value):
        if isinstance(value, dict):
            return tuple(sorted((k, canon(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(canon(v) for v in value)
        if isinstance(value, np.ndarray):
            return (str(value.dtype), value.shape, value.tobytes())
        return value

    return canon({k: v for k, v in payload.items() if k != "runtime_seconds"})


def _grid_requests():
    """``(circuit, config, job)`` per lock seed of the sweep."""
    cell = fig7_cells(SMOKE_SCALE, seed=0)[0]
    base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
    requests = []
    for seed in range(SWEEP_SEEDS):
        locked = lock_with(cell.scheme, base, key_size=cell.key_size, seed=seed)
        requests.append(
            (
                locked.circuit,
                cell.config,
                ServeClient.job_for(locked.circuit, cell.config),
            )
        )
    return requests


def test_serve_pipeline_and_warm_is_instant():
    cores = os.cpu_count()
    requests = _grid_requests()
    jobs = [job for _, _, job in requests]
    assert len(jobs) == SWEEP_SEEDS

    start = time.perf_counter()
    reference = {job.store_key: _fingerprint(execute_job(job)) for job in jobs}
    serial_s = time.perf_counter() - start
    print(
        f"\n[bench_serve] {len(jobs)} jobs, {WORKERS} workers, "
        f"{cores} cores: serial {serial_s:.1f}s "
        f"({serial_s / len(jobs):.2f}s/job)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        # --- serve: persistent worker connections --------------------------
        server = AttackServer(
            "127.0.0.1:0", tmp / "store", poll=0.05, log=lambda *a: None
        )
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        workers = _start_workers(["--serve-addr", server.address])
        client = ServeClient(server.address)
        try:
            # Timed until every artifact is persisted in the server's
            # store.  Artifact download is a separate serving concern,
            # measured by the warm-latency loop below.
            start = time.perf_counter()
            for job in jobs:
                client.submit_job(job, wait=False)
            deadline = start + 600
            while time.perf_counter() < deadline:
                progress = client.stats()
                if progress["completed"] + progress["failed"] >= len(jobs):
                    break
                time.sleep(0.02)
            serve_s = time.perf_counter() - start
            serve_fp = {
                job.store_key: _fingerprint(
                    server.store.get("attacks", job.store_key)
                )
                for job in jobs
            }
            assert serve_fp == reference, "served results diverged from serial"
            assert server.stats.requeues == 0 and server.stats.failed == 0

            # --- warm serving: repeated fetches against the live server ----
            warm_circuit, warm_config, _ = requests[0]
            latencies = []
            for _ in range(WARM_REQUESTS):
                start = time.perf_counter()
                client.attack(warm_circuit, warm_config)
                latencies.append(time.perf_counter() - start)
            warm_p50 = statistics.median(latencies)
            warm_p95 = statistics.quantiles(latencies, n=20)[-1]
            warm_rps = WARM_REQUESTS / sum(latencies)

            # --- cold process: a fresh CLI interpreter per request ---------
            # CLI-default config (only --epochs overridden) so the CLI
            # process computes the same content key client-side.
            cli_config = MuxLinkConfig(
                h=3, threshold=0.01,
                train=TrainConfig(epochs=2, learning_rate=1e-3, seed=0),
                seed=0,
            )
            base = load_benchmark("c1355", scale=0.1)
            locked = lock_with("D-MUX", base, key_size=6, seed=0)
            bench_path = tmp / "locked.bench"
            dump_bench(locked.circuit, bench_path, key=locked.key)
            client.attack(locked.circuit, cli_config)  # train it once

            start = time.perf_counter()
            served_cli = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "attack",
                    str(bench_path), "--epochs", "2",
                    "--serve", server.address,
                ],
                capture_output=True, text=True, env=_ENV, timeout=600,
            )
            cold_process_s = time.perf_counter() - start
            assert served_cli.returncode == 0, served_cli.stderr
        finally:
            client.shutdown()
            _stop_workers(workers)
            loop.join(timeout=30)
            server.close()

        # CLI parity: the served prediction equals a local in-process run.
        local_cli = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "attack",
                str(bench_path), "--epochs", "2",
                "--store", str(tmp / "store-local"),
            ],
            capture_output=True, text=True, env=_ENV, timeout=600,
        )
        assert local_cli.returncode == 0, local_cli.stderr
        served_key = [l for l in served_cli.stdout.splitlines()
                      if l.startswith("predicted key:")]
        local_key = [l for l in local_cli.stdout.splitlines()
                     if l.startswith("predicted key:")]
        assert served_key and served_key == local_key, (
            f"CLI predictions diverged: {served_key} vs {local_key}"
        )

    serve_speedup = serial_s / serve_s
    warm_advantage = cold_process_s / warm_p50
    print(f"  serve: {serve_s:.1f}s ({serve_speedup:.2f}x)")
    print(
        f"  warm: p50 {warm_p50 * 1000:.1f}ms  p95 {warm_p95 * 1000:.1f}ms  "
        f"{warm_rps:.0f} req/s   cold process: {cold_process_s:.1f}s "
        f"({warm_advantage:.0f}x slower than warm p50)"
    )

    if MIN_WARM_ADVANTAGE:
        assert warm_advantage >= MIN_WARM_ADVANTAGE, (
            f"warm serving only {warm_advantage:.1f}x faster than a cold "
            f"`repro attack` process; needs >= {MIN_WARM_ADVANTAGE}x"
        )


if __name__ == "__main__":
    test_serve_pipeline_and_warm_is_instant()
    print("bench_serve: OK")
