"""Gate: the attack service must serve the smoke grid bit-identical to serial.

Boots a real ``repro serve`` process (server + worker fleet in one
command), submits the 8-cell smoke fig7 grid through
:class:`repro.client.ServeClient`, and compares every served artifact —
as :meth:`ServeClient.result` returns it, re-encoded — against an
in-process ``execute_job`` reference, wall-clock aside.  Two warm passes
then ask for every key through :meth:`ServeClient.attack` — the
job-less, key-first warm path: each hit must decode to the reference
artifact and schedule nothing.  The server keeps one memory-tier entry,
so all but at most one hit per pass is a store-tier frame, and the
second pass serves each key from its memoized frame header.  The
throughput of the cold and warm passes and the warm-hit p50 are printed
for the job summary, after the
start-up line (seconds from spawn until the server listens and every
worker has connected).  Exits non-zero on any divergence.

Usage: ``check_serve.py [--workers N]``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace

_SRC_ROOT = str(pathlib.Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, _SRC_ROOT)

from repro.benchgen import load_benchmark  # noqa: E402
from repro.client import ServeClient  # noqa: E402
from repro.experiments import SMOKE_SCALE, fig7_cells  # noqa: E402
from repro.experiments.common import lock_with  # noqa: E402
from repro.jobs import execute_job  # noqa: E402
from repro.store import encode_attack_artifact  # noqa: E402

_READY = re.compile(r"serve: listening on (\S+) ")
#: Warm passes over every key.  The first store-tier read of a key checks
#: the whole file and memoizes its frame header; the second reads only
#: the array bytes behind that header.
WARM_PASSES = 2


def _fingerprint(payload):
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


def _smoke_requests():
    """``(circuit, config, job)`` for every cell of the widened smoke grid."""
    # Smoke sizing, widened to 2 benchmarks x 2 schemes x 2 key sizes so
    # the fleet actually shares a queue (the bare smoke grid is 2 cells).
    scale = replace(
        SMOKE_SCALE,
        name="serve-ci",
        iscas=("c1355", "c1908"),
        iscas_keys=(6, 8),
    )
    requests = []
    for cell in fig7_cells(scale, seed=0):
        base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
        locked = lock_with(
            cell.scheme, base, key_size=cell.key_size, seed=cell.lock_seed
        )
        requests.append(
            (
                locked.circuit,
                cell.config,
                ServeClient.job_for(locked.circuit, cell.config),
            )
        )
    return requests


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv[1:])

    requests = _smoke_requests()
    jobs = [job for _, _, job in requests]
    print(f"serve-ci: {len(jobs)} smoke jobs, {args.workers} workers")
    reference = {job.store_key: _fingerprint(execute_job(job)) for job in jobs}

    with tempfile.TemporaryDirectory() as tmp:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--addr", "127.0.0.1:0",
                "--store", str(pathlib.Path(tmp) / "store"),
                "--workers", str(args.workers),
                "--poll", "0.1",
                # One memory-tier entry: the warm pass is served from the
                # store tier, whose frames are built from the stored bytes.
                "--cache-entries", "1",
            ],
            env={
                **os.environ,
                "PYTHONPATH": _SRC_ROOT
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            match = _READY.search(ready)
            if match is None:
                proc.terminate()
                tail = ready + (proc.stdout.read() or "")
                sys.stderr.write(f"server never came up:\n{tail}\n")
                return 1
            address = match.group(1)
            listening_s = time.perf_counter() - spawned
            # Start-up, timing only: the forked fleet's hellos follow.  A
            # drain thread counts them (and keeps the pipe from filling).
            fleet = {"connected": 0}
            ready = threading.Event()

            def drain() -> None:
                for line in proc.stdout:
                    if "worker connected" in line:
                        fleet["connected"] += 1
                        if fleet["connected"] >= args.workers:
                            ready.set()

            threading.Thread(target=drain, daemon=True).start()
            if args.workers:
                ready.wait(timeout=60)
            print(
                f"serve-ci: ready {time.perf_counter() - spawned:.2f}s "
                f"(listening {listening_s:.2f}s → {fleet['connected']} "
                "workers connected)"
            )

            client = ServeClient(address)
            try:
                start = time.perf_counter()
                for job in jobs:
                    reply = client.submit_job(job, wait=False)
                    if reply.get("status") not in (
                        "queued", "coalesced", "hit"
                    ):
                        sys.stderr.write(f"bad accept frame: {reply}\n")
                        return 1
                artifacts = {
                    job.store_key: client.result(job.store_key, timeout=600)
                    for job in jobs
                }
                cold_s = time.perf_counter() - start

                served = {
                    key: _fingerprint(encode_attack_artifact(artifact))
                    for key, artifact in artifacts.items()
                }
                if served != reference:
                    bad = [
                        key for key in reference
                        if served.get(key) != reference[key]
                    ]
                    sys.stderr.write(
                        f"served artifacts diverged from serial for "
                        f"{len(bad)} of {len(jobs)} keys: "
                        f"{[key[:12] for key in bad]}\n"
                    )
                    return 1

                before = client.stats()
                latencies = []
                for _ in range(WARM_PASSES):
                    for circuit, config, job in requests:
                        start = time.perf_counter()
                        hit = client.attack(circuit, config)
                        latencies.append(time.perf_counter() - start)
                        if (
                            _fingerprint(encode_attack_artifact(hit))
                            != reference[job.store_key]
                        ):
                            sys.stderr.write(
                                f"warm hit on {job.store_key[:12]}… "
                                "decoded to another artifact than the "
                                "serial run\n"
                            )
                            return 1
                warm_s = sum(latencies)

                stats = client.stats()
                print(
                    f"serve-ci: cold {len(jobs)} jobs in {cold_s:.1f}s "
                    f"({len(jobs) / cold_s:.1f} jobs/s), {len(latencies)} "
                    f"warm hits in {warm_s:.2f}s "
                    f"({len(latencies) / warm_s:.0f} req/s)"
                )
                print(
                    "serve-ci: warm hit p50 "
                    f"{1000 * statistics.median(latencies):.2f}ms "
                    "(ServeClient.attack, key first)"
                )
                print(
                    f"serve-ci: scheduled={stats['scheduled']} "
                    f"completed={stats['completed']} failed={stats['failed']} "
                    f"requeues={stats['requeues']} "
                    f"memory_hits={stats['memory_hits']} "
                    f"store_hits={stats['store_hits']}"
                )
                rescheduled = stats["scheduled"] - before["scheduled"]
                hits = sum(
                    stats[tier] - before[tier]
                    for tier in ("memory_hits", "store_hits")
                )
                store_hits = stats["store_hits"] - before["store_hits"]
                if (
                    rescheduled
                    or hits != WARM_PASSES * len(jobs)
                    or store_hits < WARM_PASSES * (len(jobs) - 1)
                ):
                    sys.stderr.write(
                        f"the warm passes scheduled {rescheduled} job(s) "
                        f"and hit {hits} of {WARM_PASSES} x {len(jobs)} "
                        f"keys, {store_hits} of them from the store tier\n"
                    )
                    return 1
                if stats["failed"] or stats["scheduled"] != len(jobs):
                    sys.stderr.write(
                        "server scheduled/failed counters off: "
                        f"{stats}\n"
                    )
                    return 1
            finally:
                try:
                    client.shutdown()
                except OSError:
                    pass
                client.close()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.terminate()
                proc.wait(timeout=30)

    print(f"bit-parity OK ({len(jobs)} served artifacts)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
