"""Quickstart: lock a benchmark with D-MUX, break it with MuxLink.

Runs in about a minute on a laptop::

    python examples/quickstart.py
"""

from repro import (
    MuxLinkConfig,
    TrainConfig,
    hamming_with_x,
    load_benchmark,
    lock_dmux,
    run_muxlink,
    score_key,
    write_bench,
)


def main() -> None:
    # 1. A design to protect (stand-in for the ISCAS-85 c1355 benchmark).
    base = load_benchmark("c1355", scale=0.3)
    print(f"original design: {base!r}")

    # 2. The defender locks it with learning-resilient D-MUX.
    locked = lock_dmux(base, key_size=16, seed=7)
    print(f"locked with {locked.scheme}: key = {locked.key}")
    print(f"localities: {[loc.strategy.value for loc in locked.localities]}")

    # 3. The attacker in the fab sees only the locked netlist ...
    bench_text = write_bench(locked.circuit)
    print(f"locked BENCH netlist: {len(bench_text.splitlines())} lines")

    # 4. ... and runs MuxLink on it (oracle-less!).  Enclosing subgraphs
    # are extracted through the batched CSR pipeline.
    #
    # Training runs on the cached-batch engine (repro.linkpred.Trainer):
    # every normalized operator and feature block is built once per split,
    # epochs then reshuffle and stitch batches from the cache.  The numeric
    # runtime is float32 by default — export REPRO_DTYPE=float64 (or call
    # repro.nn.set_default_dtype) for the well-conditioned float64 mode
    # used by gradient checks.  The TrainConfig below opts into early
    # stopping; ``checkpoint_path=...`` / ``resume=True`` would persist
    # the full training state (weights + Adam moments + RNG streams) and
    # continue an interrupted run bit-identically.
    config = MuxLinkConfig(
        h=3,
        threshold=0.01,
        train=TrainConfig(
            epochs=25,
            learning_rate=1e-3,
            seed=0,
            patience=10,       # stop early if validation stalls
            log_every=5,       # progress line every 5 epochs
        ),
    )
    result = run_muxlink(locked.circuit, config)
    best = result.history.best_epoch
    print(f"trained {result.history.epochs_run} epochs (best: {best})")
    print(f"predicted key: {result.predicted_key}")
    print(f"actual key:    {locked.key}")

    # 5. Score the attack with the paper's metrics.
    metrics = score_key(result.predicted_key, locked.key)
    print(
        f"AC={metrics.accuracy:.1%}  PC={metrics.precision:.1%}  "
        f"KPA={metrics.kpa:.1%}  undecided={metrics.n_x}"
    )

    # 6. How close is the recovered design functionally?
    hd = hamming_with_x(
        base, locked.circuit, result.predicted_key, n_patterns=10_000
    )
    print(f"Hamming distance of recovered design: {hd:.2%} (attacker wants 0%)")


if __name__ == "__main__":
    main()
