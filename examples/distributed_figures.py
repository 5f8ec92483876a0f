"""Distributed ``repro figures``: two worker processes, one socket bus.

Demonstrates the socket job bus end to end with **real processes** — the
deployment shape, minus the second machine:

* two ``repro worker --serve-addr`` processes dial the coordinator's
  address (start them before or after the coordinator; they retry the
  connection on a backoff);
* one ``repro figures --bus socket`` coordinator plans the smoke-scale
  grid, serves the unique attack jobs to the connected workers, and
  writes the artifacts they send back into its store;
* a second, **warm** coordinator run on the same address then completes
  with zero jobs — the store dedupe runs before the bus ever sees a job.

Equivalent shell session::

    repro worker --serve-addr 127.0.0.1:7787 &
    repro worker --serve-addr 127.0.0.1:7787 &
    repro figures --figures 7 8 9 10 --scale smoke \
        --bus socket --bus-addr 127.0.0.1:7787 --store ./store

Every figure table is bit-identical to a serial ``--bus local`` run:
jobs travel as codec payloads (the store's own exchange format), so the
backend can never move a bit of the result.  If a worker dies mid-job —
SIGKILL included — the server requeues its jobs for a peer; ``repro
chaos --plan worker-crash`` drills exactly that.
"""

from __future__ import annotations

import pathlib
import socket
import subprocess
import sys
import tempfile
import time

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src"
ENV = {"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"}


def free_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def start_worker(address: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--serve-addr", address,
            "--poll", "0.1",
            "--idle-timeout", "300",
        ],
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def run_figures(address: str, store: pathlib.Path, label: str) -> str:
    print(f"=== {label} ===")
    start = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "figures",
            "--figures", "7", "8", "9", "10",
            "--scale", "smoke",
            "--bus", "socket",
            "--bus-addr", address,
            "--store", str(store),
        ],
        capture_output=True,
        text=True,
        env=ENV,
        check=True,
    )
    print(f"  {time.perf_counter() - start:.1f}s wall-clock")
    for line in result.stdout.splitlines():
        if line.startswith(("runner:", "bus[", "store:")):
            print(f"  {line}")
    return result.stdout


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = pathlib.Path(tmp) / "store"
        address = free_address()

        workers = [start_worker(address) for _ in range(2)]
        print(f"started workers: pids {[w.pid for w in workers]}")
        try:
            cold = run_figures(address, store, "cold coordinator (2 workers)")
            warm = run_figures(address, store, "warm coordinator (no jobs)")
        finally:
            for worker in workers:
                worker.terminate()
        for worker in workers:
            out, _ = worker.communicate(timeout=30)
            for line in out.splitlines()[-2:]:
                print(f"  [pid {worker.pid}] {line}")

        tables = lambda text: [  # noqa: E731 - tiny local filter
            line
            for line in text.splitlines()
            if line.strip()
            and not line.startswith(
                ("runner:", "bus[", "store:", "store=", "bus=", "scale=")
            )
        ]
        assert tables(cold) == tables(warm), "warm tables diverged"
        assert "jobs=0" in warm.split("bus[socket]: ")[1].splitlines()[0], (
            "warm run should submit nothing"
        )
        print("\ncold and warm figure tables identical; warm run submitted 0 jobs")


if __name__ == "__main__":
    main()
