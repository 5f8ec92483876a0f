"""Shared experiment infrastructure: scales, runners, result records.

Three parameter presets exist for every experiment:

* ``SMOKE`` — one tiny benchmark, one key size, two epochs.  Seconds of
  runtime; the preset the test suite drives every figure through.
* ``CI`` — shrunk circuits / keys / epochs so the whole figure regenerates
  in minutes on a laptop.  This is what ``benchmarks/`` runs.
* ``PAPER`` — the full-size setting of the paper (all 13 benchmarks,
  K up to 512, 100 epochs).  Same code path, hours of runtime.

Set the environment variable ``REPRO_EXPERIMENT_SCALE=paper`` (or
``smoke``) to switch the benches to another preset; any other value is
a :class:`~repro.settings.SettingsError`, never a silent fallback.

Figure grids execute through the cache-aware engine in
:mod:`repro.experiments.runner`: ``REPRO_JOBS=N`` (or ``repro figures
--jobs N``) fans independent attack cells out over N forked workers,
while locked netlists and trained attacks are cached and reused across
cells and figures.  The default (``REPRO_JOBS=0``) stays serial, and
serial, fanned-out and reordered runs produce bit-identical
:class:`AttackRecord` payloads because every cell derives its RNG
streams from a ``SeedSequence`` keyed on the cell identity rather than
grid order (:func:`repro.experiments.runner.make_cell`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import MuxLinkConfig
from repro.core.metrics import KeyMetrics
from repro.linkpred import TrainConfig
from repro.locking import (
    DMUX_SCHEME,
    SYMMETRIC_SCHEME,
    LockedCircuit,
    lock_dmux,
    lock_symmetric,
)
from repro.netlist import Circuit
from repro.settings import setting

__all__ = [
    "ExperimentScale",
    "SMOKE_SCALE",
    "CI_SCALE",
    "PAPER_SCALE",
    "SCALES",
    "active_scale",
    "scale_by_name",
    "AttackRecord",
    "lock_with",
    "format_records",
]

@dataclass(frozen=True)
class ExperimentScale:
    """One evaluation preset.

    Attributes:
        name: preset label (shows up in reports).
        iscas: ISCAS-85 benchmark names to include.
        itc: ITC-99 benchmark names to include.
        circuit_scale_iscas / circuit_scale_itc: stand-in size factors.
        iscas_keys / itc_keys: key sizes per family (paper: {64, 128, 256}
            and {256, 512}).
        h: enclosing-subgraph hops.
        threshold: post-processing ``th``.
        epochs / learning_rate: GNN training budget.
        hd_patterns: random patterns for Hamming-distance runs.

    Each attack runs as one in-process path; cores are spent one level
    up, on the job grid (``repro figures --jobs`` and the bus).
    """

    name: str
    iscas: tuple[str, ...]
    itc: tuple[str, ...]
    circuit_scale_iscas: float
    circuit_scale_itc: float
    iscas_keys: tuple[int, ...]
    itc_keys: tuple[int, ...]
    h: int = 3
    threshold: float = 0.01
    epochs: int = 15
    learning_rate: float = 1e-3
    hd_patterns: int = 10_000

    def benchmarks(self) -> tuple[tuple[str, float, tuple[int, ...]], ...]:
        """``(name, scale, key_sizes)`` for every included benchmark."""
        rows = [
            (name, self.circuit_scale_iscas, self.iscas_keys)
            for name in self.iscas
        ]
        rows += [
            (name, self.circuit_scale_itc, self.itc_keys) for name in self.itc
        ]
        return tuple(rows)

    def attack_config(self, seed: int = 0) -> MuxLinkConfig:
        return MuxLinkConfig(
            h=self.h,
            threshold=self.threshold,
            train=TrainConfig(
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                seed=seed,
            ),
            seed=seed,
        )


SMOKE_SCALE = ExperimentScale(
    name="smoke",
    iscas=("c1355",),
    itc=(),
    circuit_scale_iscas=0.1,
    circuit_scale_itc=0.1,
    iscas_keys=(6,),
    itc_keys=(),
    h=1,
    epochs=2,
    hd_patterns=256,
)

CI_SCALE = ExperimentScale(
    name="ci",
    iscas=("c1355", "c1908", "c2670"),
    itc=("b14", "b15"),
    circuit_scale_iscas=0.15,
    circuit_scale_itc=0.018,
    iscas_keys=(8, 16),
    itc_keys=(16,),
    h=3,
    epochs=15,
    hd_patterns=4096,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    iscas=("c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"),
    itc=("b14", "b15", "b20", "b21", "b22", "b17"),
    circuit_scale_iscas=1.0,
    circuit_scale_itc=1.0,
    iscas_keys=(64, 128, 256),
    itc_keys=(256, 512),
    h=3,
    epochs=100,
    learning_rate=1e-4,
    hd_patterns=100_000,
)


SCALES = {
    SMOKE_SCALE.name: SMOKE_SCALE,
    CI_SCALE.name: CI_SCALE,
    PAPER_SCALE.name: PAPER_SCALE,
}


def scale_by_name(name: str) -> ExperimentScale:
    """Look a preset up by name (``smoke`` / ``ci`` / ``paper``)."""
    try:
        return SCALES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")


def active_scale(name: str | None = None) -> ExperimentScale:
    """Preset *name*, else ``REPRO_EXPERIMENT_SCALE``, else CI."""
    return scale_by_name(setting("REPRO_EXPERIMENT_SCALE", name))


_LOCKERS = {
    DMUX_SCHEME: lock_dmux,
    SYMMETRIC_SCHEME: lock_symmetric,
}


def lock_with(
    scheme: str, circuit: Circuit, key_size: int, seed: int = 0
) -> LockedCircuit:
    """Lock *circuit* with the named scheme (``D-MUX`` / ``Symmetric-MUX``)."""
    try:
        locker = _LOCKERS[scheme]
    except KeyError:
        raise KeyError(f"unknown scheme {scheme!r}; choose from {sorted(_LOCKERS)}")
    return locker(circuit, key_size=key_size, seed=seed)


@dataclass
class AttackRecord:
    """One (benchmark, scheme, key size) attack outcome."""

    benchmark: str
    scheme: str
    key_size: int
    metrics: KeyMetrics
    runtime_seconds: float
    predicted_key: str = ""
    extras: dict = field(default_factory=dict)


def format_records(records: list[AttackRecord], title: str) -> str:
    """Render records as the paper-style AC/PC/KPA table."""
    lines = [title, f"{'benchmark':<10}{'scheme':<15}{'K':>5}{'AC':>8}{'PC':>8}{'KPA':>8}{'X':>5}{'sec':>8}"]
    for r in records:
        m = r.metrics
        kpa = f"{m.kpa:.3f}" if m.kpa == m.kpa else "  nan"
        lines.append(
            f"{r.benchmark:<10}{r.scheme:<15}{r.key_size:>5}"
            f"{m.accuracy:>8.3f}{m.precision:>8.3f}{kpa:>8}"
            f"{m.n_x:>5}{r.runtime_seconds:>8.1f}"
        )
    return "\n".join(lines)
