"""Attack a benchmark suite with MuxLink — a miniature of paper Fig. 7.

Locks two ISCAS-85 stand-ins with both learning-resilient schemes and
several key sizes, attacks each cell through the cache-aware
:class:`~repro.experiments.ExperimentRunner`, and prints the AC/PC/KPA
grid::

    python examples/attack_dmux_suite.py

Parallelism and reuse
---------------------

The grid cells are independent, so the runner fans them out over worker
processes when asked — results are **bit-identical** for any job count,
because each cell derives its RNG streams from its identity rather than
from grid order::

    REPRO_JOBS=4 python examples/attack_dmux_suite.py   # 4-worker pool

The same engine backs the figure drivers; regenerate the paper's whole
Fig. 7-10 set with one shared artifact cache (Fig. 8's Hamming runs and
Fig. 9's threshold sweep reuse Fig. 7's locked netlists and trained
attacks instead of re-locking and re-training)::

    repro figures --jobs 4                  # all four figures, 4 workers
    repro figures --figures 7 9 --scale smoke --jobs auto
"""

from repro.core.metrics import aggregate_metrics
from repro.experiments import ExperimentRunner, ExperimentScale, fig7_cells

SUITE = ExperimentScale(
    name="example",
    iscas=("c1355", "c1908"),
    itc=(),
    circuit_scale_iscas=0.15,
    circuit_scale_itc=1.0,
    iscas_keys=(8, 16),
    itc_keys=(),
    h=3,
    epochs=15,
    learning_rate=1e-3,
)


def main() -> None:
    cells = fig7_cells(SUITE, seed=1)
    with ExperimentRunner() as runner:  # REPRO_JOBS picks the worker count
        records = runner.run(cells)
        print(f"{'benchmark':<10}{'scheme':<15}{'K':>4}{'AC':>8}{'PC':>8}{'KPA':>8}")
        for r in records:
            m = r.metrics
            print(
                f"{r.benchmark:<10}{r.scheme:<15}{r.key_size:>4}"
                f"{m.accuracy:>8.3f}{m.precision:>8.3f}{m.kpa:>8.3f}"
            )
        pooled = aggregate_metrics([r.metrics for r in records])
        print(
            f"\npooled: AC={pooled.accuracy:.1%} PC={pooled.precision:.1%} "
            f"KPA={pooled.kpa:.1%} (random guessing would give ~50%)"
        )
        print(f"runner: {runner.stats.summary()}")


if __name__ == "__main__":
    main()
