"""Streamed candidate scoring and allocation-free training, end to end.

Runs in well under a minute::

    python examples/streamed_scoring.py

Everything the DGCNN multiplies — four graph convolutions forward, four
transposed products backward, every step — goes through scipy's C CSR
kernels via ``repro.nn.sparse.SparseOp``.  This example shows the two
things around it that the attack path relies on:

* ``MuxLinkConfig.score_prefetch`` streams candidate scoring so target
  subgraph extraction overlaps the GNN forwards,
* forward workspaces make steady-state training allocation-free (nothing
  to configure — shown here by the bit-identical repeat run).
"""

import numpy as np

from repro import MuxLinkConfig, TrainConfig, load_benchmark, lock_dmux, run_muxlink


def main() -> None:
    # 1. The full attack with streamed scoring. --------------------------
    # score_prefetch > 0 (the default) overlaps target-subgraph
    # extraction with GNN scoring through a bounded producer/consumer
    # queue; 0 restores the serial extract-everything-then-score path.
    # Likelihoods are bit-identical either way.
    base = load_benchmark("c1355", scale=0.3)
    locked = lock_dmux(base, key_size=8, seed=1)
    config = dict(
        h=2, train=TrainConfig(epochs=3, learning_rate=1e-3, seed=0), seed=0
    )
    streamed = run_muxlink(
        locked.circuit, MuxLinkConfig(score_prefetch=2, **config)
    )
    serial = run_muxlink(
        locked.circuit, MuxLinkConfig(score_prefetch=0, **config)
    )
    same = np.array_equal(
        np.array([m.likelihoods for m in streamed.scored]),
        np.array([m.likelihoods for m in serial.scored]),
    )
    print(
        f"streamed scoring: key {streamed.predicted_key} "
        f"(serial parity: {same}, "
        f"testing stage {streamed.runtime_seconds['testing']:.2f}s)"
    )

    # 2. Workspace reuse is invisible — and exactly reproducible. --------
    # The DGCNN recycles its forward buffers (graph-conv slots, the
    # fused sortpool/conv gather) across steps; a re-run of the same
    # attack walks a bit-identical trajectory.
    again = run_muxlink(
        locked.circuit, MuxLinkConfig(score_prefetch=2, **config)
    )
    print(
        "repeat run bit-identical: "
        f"{again.predicted_key == streamed.predicted_key}"
    )


if __name__ == "__main__":
    main()
