"""Chaos-drill bench: what does surviving injected faults cost?

Times a clean serial fig7 smoke-grid run, then runs the ``repro chaos``
drills (default: ``enospc`` + ``worker-crash``) against the same grid.
Every drill must PASS its own gates — at least one fault injected, the
recovery counters showing the machinery engaged, and the resulting
records and rendered table **bit-identical** to the clean run.  The
per-drill wall-clock and its overhead multiple over the clean run land
under the ``bench_chaos`` section of ``BENCH_training.json``.

The overhead is dominated by deliberate drill mechanics (worker
subprocess startup, reconnect backoff, a peer started only after the
victim crashed), not by the
fault-injection layer itself: an unarmed ``faults.fire()`` is a
dictionary miss, and the clean pass here runs with the faults package
fully imported.

``REPRO_BENCH_CHAOS_PLANS`` (comma-separated named plans) widens or
narrows the drilled set.

Run standalone::

    python benchmarks/bench_chaos.py

or under pytest::

    pytest benchmarks/bench_chaos.py -s
"""

from __future__ import annotations

import os
import time

from perf_record import update_record
from repro.experiments import SMOKE_SCALE, ExperimentRunner, fig7_cells
from repro.faults.chaos import DRILL_TOPOLOGY, run_chaos

PLANS = [
    name
    for name in os.environ.get(
        "REPRO_BENCH_CHAOS_PLANS", "enospc,worker-crash"
    ).split(",")
    if name
]


def test_chaos_drills_pass_with_bounded_overhead():
    for name in PLANS:
        assert name in DRILL_TOPOLOGY, f"unknown chaos plan {name!r}"

    # The clean baseline every drill is compared against, timed with the
    # faults package armed-but-silent — exactly the production shape.
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    started = time.perf_counter()
    with ExperimentRunner(jobs=0) as runner:
        runner.run(cells)
    clean_s = time.perf_counter() - started
    print(f"bench_chaos: clean serial grid ({len(cells)} cells) {clean_s:.2f}s")

    outcomes = run_chaos(PLANS, scale=SMOKE_SCALE, seed=0)

    drills = {}
    for outcome in outcomes:
        assert outcome.ok, outcome.summary()
        assert outcome.fingerprints_match and outcome.tables_match
        overhead = outcome.seconds / clean_s if clean_s else 0.0
        drills[outcome.plan] = {
            "topology": outcome.topology,
            "seconds": round(outcome.seconds, 2),
            "overhead_x": round(overhead, 2),
            "injected": outcome.total_injected,
            "requeues": outcome.requeues,
            "failed_over": outcome.failed_over,
            "write_retries": outcome.write_retries,
        }
        print(
            f"bench_chaos: {outcome.plan} ({outcome.topology}) "
            f"{outcome.seconds:.2f}s = {overhead:.2f}x clean, "
            f"{outcome.total_injected} injected"
        )

    update_record(
        "bench_chaos",
        {
            "scale": SMOKE_SCALE.name,
            "cells": len(cells),
            "clean_serial_s": round(clean_s, 2),
            "drills": drills,
            "bit_identical": True,
        },
    )


if __name__ == "__main__":
    test_chaos_drills_pass_with_bounded_overhead()
    print("bench_chaos: OK")
