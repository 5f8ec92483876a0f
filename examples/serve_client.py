"""Attack as a service: a persistent server, warm results, remote store.

Boots one real ``repro serve`` process — server, artifact store, and
two pipelined workers forked from the warm server, in a single command
— then drives it as a client:

1. :class:`~repro.client.ServeClient` submits a locked circuit by
   **content key**; the first request trains (``queued``), and a warm
   :meth:`~repro.client.ServeClient.attack` asks by key alone and gets
   the cached result frame back in milliseconds;
2. identical requests submitted while the first is still training
   **coalesce** onto the same computation — K clients, one training;
3. :class:`~repro.store.remote.RemoteStore` (the ``remote://host:port``
   store scheme) reads raw artifacts out of the server's store over the
   same framed protocol;
4. ``repro attack --serve ADDR`` gives any shell the warm path with
   output identical to a local run.

The server owns everything stateful; clients are stateless and
disposable.  ::

    python examples/serve_client.py
"""

import pathlib
import re
import subprocess
import sys
import tempfile
import time

from repro.benchgen import load_benchmark
from repro.client import ServeClient
from repro.core import MuxLinkConfig
from repro.experiments.common import lock_with
from repro.linkpred import TrainConfig
from repro.store import resolve_store

_READY = re.compile(r"serve: listening on (\S+) ")


def main() -> None:
    config = MuxLinkConfig(
        h=3,
        threshold=0.01,
        train=TrainConfig(epochs=2, learning_rate=1e-3, seed=0),
        seed=0,
    )
    base = load_benchmark("c1355", scale=0.1)
    locked = lock_with("D-MUX", base, key_size=6, seed=0)

    with tempfile.TemporaryDirectory() as tmp:
        print("=== 0. Boot: one command, server + store + 2 workers ===")
        server = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--addr", "127.0.0.1:0",
                "--store", str(pathlib.Path(tmp) / "store"),
                "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            ready = server.stdout.readline()
            address = _READY.search(ready).group(1)
            print(f"  {ready.strip()}")

            print("=== 1. First request trains, the repeat is warm ===")
            client = ServeClient(address)
            key, status = client.submit(locked.circuit, config)
            print(f"  submit -> {status} (content key {key[:12]}…)")
            start = time.perf_counter()
            result = client.result(key, timeout=600)
            print(
                f"  trained in {time.perf_counter() - start:.1f}s, "
                f"predicted key {result.predicted_key}"
            )
            # attack() asks by key first: a warm key's result frame is
            # the whole reply, and the netlist never goes over the wire.
            start = time.perf_counter()
            client.attack(locked.circuit, config)
            print(
                f"  warm attack (one key-only exchange) in "
                f"{(time.perf_counter() - start) * 1000:.1f}ms"
            )

            print("=== 2. Identical in-flight requests coalesce ===")
            relocked = lock_with("D-MUX", base, key_size=6, seed=1)
            statuses = [
                client.submit(relocked.circuit, config)[1] for _ in range(3)
            ]
            print(f"  3 submits while training -> {statuses}")
            client.result(
                ServeClient.predict_store_key(relocked.circuit, config),
                timeout=600,
            )
            stats = client.stats()
            print(
                f"  server counters: scheduled={stats['scheduled']} "
                f"coalesced={stats['coalesced']} "
                f"memory_hits={stats['memory_hits']}"
            )

            print("=== 3. remote:// — the store over the wire ===")
            remote = resolve_store(f"remote://{address}")
            artifact = remote.get("attacks", key)
            print(
                f"  {remote.root} -> raw artifact with "
                f"{len(artifact)} payload keys"
            )
            remote.close()

            print("=== 4. Any shell gets the warm path ===")
            print(f"  repro attack locked.bench --serve {address}")
            print("  (same output as a local run — tested bit-identical)")

            client.shutdown()
            client.close()
        finally:
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.terminate()
                server.wait(timeout=30)


if __name__ == "__main__":
    main()
