"""Benchmark suites used throughout the evaluation.

The paper evaluates on seven ISCAS-85 circuits (c1355 … c7552) and six
combinational ITC-99 circuits (b14 … b17).  The original netlists are not
available offline, so :func:`load_benchmark` synthesizes deterministic
stand-ins whose primary-input / primary-output / gate counts match the
published sizes.  The true ISCAS-85 **c17** netlist is tiny and included
verbatim as a ground-truth anchor.

``scale`` shrinks every stand-in proportionally so that CI-sized experiment
runs finish in minutes; the full-size circuits are what ``scale=1.0`` yields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.netlist import Circuit, parse_bench
from repro.benchgen.generators import random_netlist

__all__ = [
    "BenchmarkSpec",
    "ISCAS85_SUITE",
    "ITC99_SUITE",
    "benchmark_names",
    "benchmark_spec",
    "load_benchmark",
    "load_c17",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Published size of a benchmark circuit (combinational view)."""

    name: str
    family: str  # "ISCAS-85" | "ITC-99"
    n_inputs: int
    n_outputs: int
    n_gates: int
    seed: int  # generator seed for the stand-in


#: ISCAS-85 sizes as distributed (gate counts from the original release).
ISCAS85_SUITE: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec("c1355", "ISCAS-85", 41, 32, 546, seed=1355),
    BenchmarkSpec("c1908", "ISCAS-85", 33, 25, 880, seed=1908),
    BenchmarkSpec("c2670", "ISCAS-85", 233, 140, 1193, seed=2670),
    BenchmarkSpec("c3540", "ISCAS-85", 50, 22, 1669, seed=3540),
    BenchmarkSpec("c5315", "ISCAS-85", 178, 123, 2307, seed=5315),
    BenchmarkSpec("c6288", "ISCAS-85", 32, 32, 2416, seed=6288),
    BenchmarkSpec("c7552", "ISCAS-85", 207, 108, 3512, seed=7552),
)

#: Combinational counterparts of the ITC-99 circuits used by the paper.
ITC99_SUITE: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec("b14", "ITC-99", 277, 299, 9767, seed=9914),
    BenchmarkSpec("b15", "ITC-99", 485, 519, 8367, seed=9915),
    BenchmarkSpec("b20", "ITC-99", 522, 512, 19682, seed=9920),
    BenchmarkSpec("b21", "ITC-99", 522, 512, 20027, seed=9921),
    BenchmarkSpec("b22", "ITC-99", 767, 757, 29162, seed=9922),
    BenchmarkSpec("b17", "ITC-99", 1452, 1512, 30777, seed=9917),
)

_ALL: dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in ISCAS85_SUITE + ITC99_SUITE
}

_C17_TEXT = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def benchmark_names(family: str | None = None) -> tuple[str, ...]:
    """Names of all suite benchmarks, optionally filtered by family."""
    specs = ISCAS85_SUITE + ITC99_SUITE
    if family is not None:
        specs = tuple(s for s in specs if s.family == family)
    return tuple(s.name for s in specs)


def benchmark_spec(name: str) -> BenchmarkSpec:
    """Return the published size spec for *name*."""
    try:
        return _ALL[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(_ALL)}"
        ) from None


def load_benchmark(name: str, scale: float = 1.0) -> Circuit:
    """Synthesize the deterministic stand-in for benchmark *name*.

    Args:
        name: a suite benchmark (``c1355`` … ``b17``) or ``c17`` (the real
            netlist, never scaled).
        scale: proportional size factor in ``(0, 1]``; gate, input and output
            counts are multiplied by it (floored, with sane minimums).
            Any other value (NaN included) raises :class:`ReproError`.
    """
    if name == "c17":
        return load_c17()
    spec = benchmark_spec(name)
    if not 0.0 < scale <= 1.0:
        raise ReproError(f"scale must be in (0, 1], got {scale}")
    n_inputs = max(4, int(spec.n_inputs * scale))
    n_outputs = max(2, int(spec.n_outputs * scale))
    n_gates = max(16, int(spec.n_gates * scale))
    return random_netlist(
        name, n_inputs=n_inputs, n_outputs=n_outputs, n_gates=n_gates, seed=spec.seed
    )


def load_c17() -> Circuit:
    """The genuine ISCAS-85 c17 netlist (6 NAND gates)."""
    circuit, _ = parse_bench(_C17_TEXT, name="c17")
    return circuit
