"""Run one ``repro`` CLI command in-process with per-layer timers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/replay.py TRACE.json -- attack locked.bench --h 3 --epochs 8

The command goes through ``repro.cli.main`` exactly as ``python -m
repro.cli`` would run it, so the program makes the same calls in the same
order and prints the same output; only the timing wrappers of
:mod:`spans` sit in between.  The layer totals, including the time taken
by ``import repro.cli``, are written to ``TRACE.json``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: replay.py TRACE.json -- <repro arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    from spans import Tracer, install

    tracer = install(Tracer())
    tracer.add_seconds("import.repro_s", import_s, toplevel=True)
    code = repro.cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as handle:
        json.dump(tracer.as_dict(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
