"""Fig. 7 runner benchmark: forked-fleet grid execution vs serial, plus caching.

Runs the Fig. 7 (benchmark x scheme x key size) grid through
:class:`~repro.experiments.ExperimentRunner` three ways at a fixed seed:

1. **serial** — ``jobs=0``, the reproducible single-core default;
2. **forked fleet** — ``jobs=REPRO_BENCH_FIG7_JOBS`` (default 4)
   workers forked from the runner's process over the *same* cells;
3. **cache-warm** — the forked-fleet runner again, which must re-lock
   and re-train nothing.

It doubles as the equivalence guard for the engine:

* the forked-fleet records must be **bit-identical** to the serial
  records (per-cell ``SeedSequence`` streams are keyed on cell identity,
  not grid order or worker count);
* the warm rerun must hit the artifact cache (zero new locks/attacks on
  the instrumented counters) and return the same records;
* with at least ``JOBS`` cores available, the forked-fleet run must be
  at least ``MIN_SPEEDUP``x faster wall-clock than the serial run (the
  speedup check is skipped on smaller machines, where a fleet cannot
  help; ``REPRO_BENCH_FIG7_MIN_SPEEDUP`` relaxes the floor on noisy
  shared runners).

Run standalone::

    python benchmarks/bench_fig7_parallel.py

or under pytest::

    pytest benchmarks/bench_fig7_parallel.py -s

``REPRO_BENCH_FIG7_SCALE`` selects the grid (default ``ci``: 16 cells).
The speedup floor is calibrated to that grid.  ``smoke`` shrinks it to
2 cells, too few for a fleet to pay for its start-up (0.88x on 2 cores
with ``REPRO_BENCH_FIG7_JOBS=2``), so at ``smoke`` only the parity and
cache asserts are meaningful and the floor fails wherever it is armed.
When ``GITHUB_STEP_SUMMARY`` is set (GitHub Actions), the timings land
in the job summary.
"""

from __future__ import annotations

import os
import time

from repro.experiments import (
    ExperimentRunner,
    fig7_cells,
    record_fingerprint,
    scale_by_name,
)

SCALE_NAME = os.environ.get("REPRO_BENCH_FIG7_SCALE", "ci")
JOBS = int(os.environ.get("REPRO_BENCH_FIG7_JOBS", "4"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_FIG7_MIN_SPEEDUP", "2.0"))
SEED = 0


def _cores() -> int:
    return os.cpu_count() or 1


def _summarize(rows: list[tuple[str, float]], speedup: float, asserted: bool) -> None:
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            f"### bench_fig7_parallel ({SCALE_NAME} grid, {JOBS} workers, "
            f"{_cores()} cores)\n\n"
        )
        handle.write("| run | wall-clock |\n|---|---|\n")
        for name, seconds in rows:
            handle.write(f"| {name} | {seconds:.2f}s |\n")
        gate = "asserted" if asserted else "informational (too few cores)"
        handle.write(f"\nforked fleet speedup: **{speedup:.2f}x** ({gate})\n")


def test_pooled_grid_parity_cache_and_speedup():
    scale = scale_by_name(SCALE_NAME)
    cells = fig7_cells(scale, seed=SEED)
    print(
        f"\n[bench_fig7_parallel] scale={scale.name} cells={len(cells)} "
        f"jobs={JOBS} cores={_cores()}"
    )

    t0 = time.perf_counter()
    serial = ExperimentRunner(jobs=0).run(cells)
    t_serial = time.perf_counter() - t0

    with ExperimentRunner(jobs=JOBS) as pooled_runner:
        t0 = time.perf_counter()
        pooled = pooled_runner.run(cells)
        t_pooled = time.perf_counter() - t0

        locks = pooled_runner.stats.locks_computed
        attacks = pooled_runner.stats.attacks_computed
        t0 = time.perf_counter()
        warm = pooled_runner.run(cells)
        t_warm = time.perf_counter() - t0
        # Cache-warm rerun: zero re-locks, zero re-trains.
        assert pooled_runner.stats.locks_computed == locks
        assert pooled_runner.stats.attacks_computed == attacks
        assert pooled_runner.stats.locks_reused >= len(cells)

    # Bit-identical records for any pool size (and from the cache).
    serial_fp = [record_fingerprint(r) for r in serial]
    assert [record_fingerprint(r) for r in pooled] == serial_fp
    assert [record_fingerprint(r) for r in warm] == serial_fp

    speedup = t_serial / t_pooled if t_pooled > 0 else float("inf")
    print(f"  serial ({len(cells)} cells): {t_serial:7.2f}s")
    print(f"  forked fleet ({JOBS} workers): {t_pooled:7.2f}s  ({speedup:.2f}x)")
    print(f"  cache-warm rerun:      {t_warm * 1000:7.1f}ms")
    assert_speedup = _cores() >= JOBS
    _summarize(
        [
            (f"serial ({len(cells)} cells)", t_serial),
            (f"forked fleet ({JOBS} workers)", t_pooled),
            ("cache-warm rerun", t_warm),
        ],
        speedup,
        assert_speedup,
    )
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"forked-fleet fig7 grid is only {speedup:.2f}x faster than serial "
            f"with {JOBS} workers on {_cores()} cores (need >= {MIN_SPEEDUP}x)"
        )
    else:
        print(
            f"  speedup assertion skipped: {_cores()} cores < {JOBS} workers"
        )


if __name__ == "__main__":
    test_pooled_grid_parity_cache_and_speedup()
    print("bench_fig7_parallel: OK")
