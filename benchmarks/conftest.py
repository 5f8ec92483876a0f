"""Benchmark-suite configuration.

Each bench regenerates one figure of the paper at CI scale (set
``REPRO_EXPERIMENT_SCALE=paper`` for the full-size protocol) and prints the
paper-style table to stdout; run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables.

All figure benches execute through one session-scoped
:class:`~repro.experiments.ExperimentRunner`, exactly like ``repro
figures``: ``REPRO_JOBS=N`` fans the attack cells out over N forked
workers, and when several figure benches run in one pytest session the
later ones reuse the locked netlists and trained attacks of the earlier
ones (Fig. 8 / Fig. 9 re-train nothing after Fig. 7).

``REPRO_STORE=<dir>`` additionally backs the runner with the persistent
content-addressed artifact store, so the bench suite, ``repro figures``
and the CLI share one artifact pool across *sessions* — a second bench
run re-locks and re-trains nothing (asserted across processes by
``tests/core/test_store_runner.py``; the runner reports the
hit/miss/bytes counters at session end).

Speed is measured end to end by ``perfbench/``; these scripts gate
parity and their own speedup floors, and print what they time.
"""

import pytest

from repro.experiments import ExperimentRunner


@pytest.fixture(scope="session")
def runner():
    """The shared cache-warm experiment runner.

    Honours ``REPRO_JOBS`` (forked workers) and ``REPRO_STORE`` (persistent
    artifact store) exactly like ``repro figures``.
    """
    with ExperimentRunner() as shared:
        yield shared
        if shared.store is not None:
            print(
                f"\n[conftest] runner: {shared.stats.summary()}"
                f"\n[conftest] store: {shared.store.stats.summary()} "
                f"@ {shared.store.root}"
            )


@pytest.fixture
def bench_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing.

    Figure regeneration takes seconds to minutes; statistical repetition
    would multiply that for no insight, so every bench uses one round.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
