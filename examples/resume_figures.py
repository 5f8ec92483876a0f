"""Resuming ``repro figures`` across invocations with the artifact store.

Runs the full figure suite **twice, in two separate interpreter
processes**, sharing one content-addressed artifact store directory —
exactly what happens when you ctrl-C a long figure regeneration and
relaunch it, or when the bench suite reuses what the CLI computed:

* invocation 1 locks every netlist and trains every attack, writing each
  artifact through to the store;
* invocation 2 performs **zero lock and zero train jobs** — every
  artifact is rematerialized from disk (``locks=0 (+N store)`` in the
  runner stats) — and prints bit-identical figure tables.

Equivalent shell session::

    export REPRO_STORE=./my-store          # or pass --store ./my-store
    repro figures --figures 7 8 9 10 --scale smoke    # cold: trains
    repro figures --figures 7 8 9 10 --scale smoke    # warm: resumes
    repro cache stats                                  # what is stored
    repro cache gc --keep-days 30                      # prune stale work

The store is content-addressed (netlist digest + attack-config hash +
schema version), so changing a seed, a key size, the epoch budget or the
runtime dtype computes new artifacts instead of poisoning old ones, and
``REPRO_JOBS=N`` runs with forked workers share the same pool.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile
import time

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src"


def invoke(store: pathlib.Path, label: str) -> float:
    """One ``repro figures`` process against *store*; returns wall-clock."""
    print(f"=== {label} ===")
    start = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "figures",
            "--figures", "7", "8", "9", "10",
            "--scale", "smoke",
            "--jobs", "0",
            "--store", str(store),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
        check=True,
    )
    seconds = time.perf_counter() - start
    # Show the bookkeeping lines; the figure tables are identical anyway.
    for line in result.stdout.splitlines():
        if line.startswith(("runner:", "store:")):
            print(f"  {line}")
    print(f"  wall-clock: {seconds:.2f}s\n")
    return seconds


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        store = pathlib.Path(tmp) / "store"
        cold = invoke(store, "invocation 1 (cold store: locks + trains)")
        warm = invoke(store, "invocation 2 (warm store: resumes)")
        print(
            f"resume speedup: {cold / max(warm, 1e-9):.1f}x — the second "
            "process re-locked and re-trained nothing."
        )


if __name__ == "__main__":
    main()
