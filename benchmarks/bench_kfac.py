"""Microbenchmark: K-FAC-preconditioned Adam vs plain Adam.

Trains the link-prediction DGCNN on the same D-MUX-locked c2670 attack
dataset as ``bench_training.py`` and gates the second-order engine on two
axes:

1. **Convergence** — K-FAC must reach the validation AUC that an
   early-stopped Adam run (patience ``PATIENCE``) peaks at, in at most
   ``MIN_SAVINGS`` (default 75%) of Adam's epoch count.  Second-order
   curvature has to buy real epochs, not just different noise.
2. **Overhead** — the amortized K-FAC step (EMA statistics every
   ``cov_every`` steps, damped exact inverses every ``inv_every`` steps,
   blocks above ``max_dim`` left on the raw-gradient path) must cost at
   most ``MAX_OVERHEAD`` (default 1.15x) of Adam's per-epoch wall time.

Shared CI runners are noisy; CI can relax the gates via
``REPRO_BENCH_KFAC_MIN_SAVINGS`` / ``REPRO_BENCH_KFAC_MAX_OVERHEAD``
while local/acceptance runs keep the full bar.

Run standalone::

    python benchmarks/bench_kfac.py

or under pytest::

    pytest benchmarks/bench_kfac.py -s

When ``GITHUB_STEP_SUMMARY`` is set (GitHub Actions), timings and epoch
counts are appended to the job summary as a markdown table.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.benchgen import load_benchmark
from repro.linkpred import (
    TrainConfig,
    Trainer,
    build_link_dataset,
    extract_attack_graph,
    sample_links,
)
from repro.locking import lock_dmux

BENCHMARK = "c2670"
SCALE = 1.0
KEY_SIZE = 32
MAX_LINKS = int(os.environ.get("REPRO_BENCH_TRAIN_LINKS", "1200"))
H = 3
SEED = 0
LEARNING_RATE = 1e-3

#: Epoch budget for both optimizers; Adam early-stops inside it.
MAX_EPOCHS = int(os.environ.get("REPRO_BENCH_KFAC_EPOCHS", "24"))
PATIENCE = 5

#: K-FAC must reach Adam's peak AUC in at most this fraction of Adam's
#: early-stopped epoch count (i.e. >= 25% fewer epochs by default).
MIN_SAVINGS = float(os.environ.get("REPRO_BENCH_KFAC_MIN_SAVINGS", "0.75"))
#: ... at no more than this much per-epoch wall-clock overhead.
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_KFAC_MAX_OVERHEAD", "1.15"))
#: Timing passes before declaring the overhead gate failed.  The loss
#: curves are deterministic — a retry redoes only the wall-clock
#: measurement, so background-load spikes have to hit every pass to
#: produce a false failure.
TIMING_PASSES = int(os.environ.get("REPRO_BENCH_KFAC_TIMING_PASSES", "3"))

#: The tuned K-FAC setting for this workload (22 steps/epoch): refresh
#: inverses once per epoch, collect statistics twice per epoch, and keep
#: the 641-wide fc1 block on the raw-gradient path — preconditioning it
#: costs the most and helps the least.
KFAC_KNOBS = dict(
    kfac_damping=1e-3,
    kfac_inv_every=22,
    kfac_cov_every=11,
    kfac_max_dim=256,
)


def build_dataset():
    base = load_benchmark(BENCHMARK, scale=SCALE)
    locked = lock_dmux(base, key_size=KEY_SIZE, seed=SEED)
    graph = extract_attack_graph(locked.circuit)
    sample = sample_links(graph, max_links=MAX_LINKS, seed=SEED)
    return build_link_dataset(graph, sample, h=H)


def config(**overrides) -> TrainConfig:
    return TrainConfig(
        epochs=MAX_EPOCHS, learning_rate=LEARNING_RATE, seed=SEED, **overrides
    )


#: Dataset + the Adam reference run are shared by every test in the file;
#: memoize so pytest collection order doesn't double the training cost.
_DATASET = None
_ADAM_REFERENCE: dict | None = None


def dataset():
    global _DATASET
    if _DATASET is None:
        _DATASET = build_dataset()
    return _DATASET


def timed_fit_interleaved(configs: list[TrainConfig]):
    """Train each config epoch-by-epoch, interleaved, timing every epoch.

    Returns ``[(history, best epoch seconds), ...]`` in input order.  The
    trainers advance in lockstep (``fit(until_epoch=...)``) so scheduler
    and turbo/thermal noise hit every optimizer equally, and the
    **minimum** per-epoch time is the cost estimate — each K-FAC epoch
    does identical work (``inv_every`` = steps/epoch, ``cov_every``
    divides it), so the min is the noise-free cost, robust against the
    multi-10% spikes whole-run timing suffers on shared runners.
    """
    trainers = [Trainer(dataset(), cfg) for cfg in configs]
    best = [float("inf")] * len(configs)
    epochs = max(cfg.epochs for cfg in configs)
    for epoch in range(1, epochs + 1):
        for i, trainer in enumerate(trainers):
            start = time.perf_counter()
            trainer.fit(until_epoch=epoch)
            best[i] = min(best[i], time.perf_counter() - start)
    return [(trainer.history, seconds) for trainer, seconds in zip(trainers, best)]


def adam_reference() -> dict:
    """Early-stopped Adam run: the epoch count + AUC target K-FAC must beat.

    Timing comes from separate fixed-epoch runs (no early stop, see
    :func:`timed_fit_interleaved`) so the per-epoch comparison against
    K-FAC covers identical work.
    """
    global _ADAM_REFERENCE
    if _ADAM_REFERENCE is None:
        stopped = Trainer(dataset(), config(patience=PATIENCE))
        _, h_stop = stopped.fit()
        _ADAM_REFERENCE = {
            "epochs": h_stop.epochs_run,
            "target_auc": h_stop.val_auc[h_stop.best_epoch],
            "stopped_early": h_stop.stopped_early,
        }
    return _ADAM_REFERENCE


def epochs_to_target(val_auc: list[float], target: float) -> int | None:
    """First epoch count (1-based) whose validation AUC reaches *target*."""
    for i, auc in enumerate(val_auc):
        if auc >= target:
            return i + 1
    return None


def _summarize(reference: dict, kfac: dict) -> None:
    from perf_record import update_record

    update_record(
        "bench_kfac",
        {
            "benchmark": BENCHMARK,
            "links": MAX_LINKS,
            "max_epochs": MAX_EPOCHS,
            "kfac_knobs": dict(KFAC_KNOBS),
            "adam": {
                "epochs_to_best": reference["epochs"],
                "target_auc": round(reference["target_auc"], 6),
                "epoch_ms": round(reference["epoch_ms"], 2),
            },
            "kfac": {
                "epochs_to_target": kfac["epochs"],
                "epoch_ms": round(kfac["epoch_ms"], 2),
            },
            "epoch_savings": round(1 - kfac["epochs"] / reference["epochs"], 3),
            "overhead": round(kfac["epoch_ms"] / reference["epoch_ms"], 3),
            "min_savings_gate": MIN_SAVINGS,
            "max_overhead_gate": MAX_OVERHEAD,
        },
    )
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("### bench_kfac (c2670 attack dataset)\n\n")
        handle.write("| optimizer | epochs to target | per epoch |\n|---|---|---|\n")
        handle.write(
            f"| adam (patience={PATIENCE}) | {reference['epochs']} "
            f"| {reference['epoch_ms']:.0f}ms |\n"
        )
        handle.write(
            f"| kfac | {kfac['epochs']} | {kfac['epoch_ms']:.0f}ms |\n"
        )
        handle.write(
            f"\ntarget val AUC **{reference['target_auc']:.4f}** — K-FAC "
            f"overhead **{kfac['epoch_ms'] / reference['epoch_ms']:.2f}x**\n"
        )


# --------------------------------------------------------------------------
# Benches
# --------------------------------------------------------------------------
def test_kfac_converges_faster_within_overhead_budget():
    """K-FAC reaches Adam's early-stop AUC in fewer epochs, near Adam cost."""
    reference = adam_reference()
    print(
        f"\n[bench_kfac] {BENCHMARK} scale={SCALE} links={MAX_LINKS} "
        f"max_epochs={MAX_EPOCHS} h={H}"
    )
    print(
        f"  adam: target auc {reference['target_auc']:.4f} at "
        f"{reference['epochs']} epochs (patience={PATIENCE}, "
        f"stopped_early={reference['stopped_early']})"
    )

    adam_epoch_s = kfac_epoch_s = float("inf")
    history = None
    for timing_pass in range(TIMING_PASSES):
        (_, adam_s), (h, kfac_s) = timed_fit_interleaved(
            [config(), config(optimizer="kfac", **KFAC_KNOBS)]
        )
        if history is not None:
            assert h.train_loss == history.train_loss  # deterministic
        history = h
        adam_epoch_s = min(adam_epoch_s, adam_s)
        kfac_epoch_s = min(kfac_epoch_s, kfac_s)
        if kfac_epoch_s / adam_epoch_s <= MAX_OVERHEAD:
            break  # timing passes only tighten a wall-clock measurement
    reference["epoch_ms"] = adam_epoch_s * 1000
    epoch_ms = kfac_epoch_s * 1000
    reached = epochs_to_target(history.val_auc, reference["target_auc"])
    overhead = epoch_ms / reference["epoch_ms"]
    print(f"  adam: {reference['epoch_ms']:.0f}ms/epoch")
    print(
        f"  kfac: target reached at epoch {reached}, "
        f"{epoch_ms:.0f}ms/epoch ({overhead:.2f}x adam)"
    )

    assert reached is not None, (
        f"K-FAC never reached Adam's target val AUC "
        f"{reference['target_auc']:.4f} within {MAX_EPOCHS} epochs "
        f"(best {max(history.val_auc):.4f})"
    )
    _summarize(reference, {"epochs": reached, "epoch_ms": epoch_ms})
    budget = MIN_SAVINGS * reference["epochs"]
    assert reached <= budget, (
        f"K-FAC took {reached} epochs to reach val AUC "
        f"{reference['target_auc']:.4f}; needs <= {budget:.1f} "
        f"({MIN_SAVINGS:.0%} of Adam's {reference['epochs']})"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"K-FAC costs {overhead:.2f}x Adam per epoch "
        f"(need <= {MAX_OVERHEAD}x)"
    )


if __name__ == "__main__":
    test_kfac_converges_faster_within_overhead_budget()
    print("bench_kfac: OK")
