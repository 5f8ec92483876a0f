"""MuxLink reproduction — GNN link-prediction attack on MUX-based locking.

Reproduces Alrahis et al., "MuxLink: Circumventing Learning-Resilient
MUX-Locking Using Graph Neural Network-based Link Prediction" (DATE 2022).

Quickstart::

    from repro import load_benchmark, lock_dmux, run_muxlink, score_key

    base = load_benchmark("c1355", scale=0.3)
    locked = lock_dmux(base, key_size=32, seed=1)
    result = run_muxlink(locked.circuit)
    print(score_key(result.predicted_key, locked.key).kpa)

.. note:: **Import side effect — BLAS thread pin.**  ``import repro``
   caps the process-wide OpenBLAS pool to **one thread**.  The pool
   size changes floating-point summation order, and every repro
   backend is held to a bit-identity contract, so the pin is the
   prerequisite for reproducible numbers (measured zero cost on these
   workloads).  If you embed repro in a larger application whose other
   BLAS workloads need parallelism, set ``REPRO_BLAS_THREADS=N``
   before importing (``0`` leaves BLAS untouched).  See README
   "BLAS threads and determinism".
"""

from repro.benchgen import (
    benchmark_names,
    load_benchmark,
    load_c17,
    random_netlist,
)
from repro.core import (
    KeyMetrics,
    MuxLinkConfig,
    MuxLinkResult,
    aggregate_metrics,
    hamming_with_x,
    recover_design,
    rescore_key,
    run_muxlink,
    score_key,
)
from repro.linkpred import TrainConfig, Trainer
from repro.locking import (
    LockedCircuit,
    apply_key,
    lock_dmux,
    lock_naive_mux,
    lock_symmetric,
    lock_xor,
)
from repro.netlist import Circuit, Gate, GateType, load_bench, parse_bench, write_bench
from repro.sim import hamming_distance
from repro.store import ArtifactStore, resolve_store

# OpenBLAS splits reductions across its thread pool, so the *thread
# count* changes floating-point summation order — the same attack on a
# 4-core and a 24-core host would differ in the last ulp and break the
# bit-identity contract every backend is held to.  Pin the pool to one
# thread at import, the only cap (a forked bus worker keeps it):
# measured zero cost on these workloads (BENCH_training.json
# ``bench_bus``), and REPRO_BLAS_THREADS overrides for users who want
# BLAS parallelism more than reproducibility.  The imports above have
# loaded numpy, and with it the OpenBLAS the pin finds; ``repro.blas``
# is a stdlib-only leaf, so pinning does not load the job bus.
from repro.blas import limit_blas_threads as _limit_blas_threads
from repro.settings import setting as _setting

_limit_blas_threads(_setting("REPRO_BLAS_THREADS"))

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "Gate",
    "GateType",
    "parse_bench",
    "load_bench",
    "write_bench",
    "load_benchmark",
    "load_c17",
    "random_netlist",
    "benchmark_names",
    "LockedCircuit",
    "lock_dmux",
    "lock_symmetric",
    "lock_naive_mux",
    "lock_xor",
    "apply_key",
    "MuxLinkConfig",
    "MuxLinkResult",
    "TrainConfig",
    "Trainer",
    "run_muxlink",
    "rescore_key",
    "KeyMetrics",
    "score_key",
    "aggregate_metrics",
    "recover_design",
    "hamming_with_x",
    "hamming_distance",
    "ArtifactStore",
    "resolve_store",
    "__version__",
]
