"""Benchmark circuit generation: random DAGs and the evaluation suites."""

from repro.benchgen.generators import (
    GeneratorConfig,
    and_netlist,
    random_circuit,
    random_netlist,
)
from repro.benchgen.resilience_tests import (
    ResilienceReport,
    run_ant,
    run_rnt,
)
from repro.benchgen.suites import (
    ISCAS85_SUITE,
    ITC99_SUITE,
    BenchmarkSpec,
    benchmark_names,
    benchmark_spec,
    load_benchmark,
    load_c17,
)

__all__ = [
    "GeneratorConfig",
    "random_circuit",
    "random_netlist",
    "and_netlist",
    "BenchmarkSpec",
    "ISCAS85_SUITE",
    "ITC99_SUITE",
    "benchmark_names",
    "benchmark_spec",
    "load_benchmark",
    "load_c17",
    "ResilienceReport",
    "run_ant",
    "run_rnt",
]
