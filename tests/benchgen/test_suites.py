"""Tests for the ISCAS/ITC stand-in benchmark suite."""

import pytest

from repro.benchgen import (
    ISCAS85_SUITE,
    ITC99_SUITE,
    benchmark_names,
    benchmark_spec,
    load_benchmark,
    load_c17,
)
from repro.errors import ReproError


def test_suite_contents_match_paper():
    assert benchmark_names("ISCAS-85") == (
        "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
    )
    assert benchmark_names("ITC-99") == ("b14", "b15", "b20", "b21", "b22", "b17")
    assert len(benchmark_names()) == 13


def test_spec_lookup():
    spec = benchmark_spec("c1355")
    assert spec.n_inputs == 41
    assert spec.n_gates == 546
    with pytest.raises(KeyError):
        benchmark_spec("c9999")


@pytest.mark.parametrize("name", ["c1355", "c1908"])
def test_standin_full_scale_sizes(name):
    spec = benchmark_spec(name)
    c = load_benchmark(name)
    assert len(c.inputs) == spec.n_inputs
    assert len(c) == spec.n_gates


def test_scale_shrinks():
    full = load_benchmark("c1355")
    small = load_benchmark("c1355", scale=0.25)
    assert len(small) < len(full)
    assert len(small) == max(16, int(546 * 0.25))
    small.validate()


def test_scale_validation():
    for scale in (0.0, 1.5, -1.0, float("nan")):
        with pytest.raises(ReproError, match="scale must be in"):
            load_benchmark("c1355", scale=scale)


def test_standins_are_deterministic():
    a = load_benchmark("c1908", scale=0.2)
    b = load_benchmark("c1908", scale=0.2)
    assert a.gates == b.gates


def test_iscas_ordering_is_by_size():
    sizes = [s.n_gates for s in ISCAS85_SUITE]
    assert sizes == sorted(sizes)


def test_itc_suite_sizes_are_large():
    assert all(s.n_gates > 8000 for s in ITC99_SUITE)


def test_real_c17():
    c = load_c17()
    assert len(c) == 6
    assert c.inputs == ("G1", "G2", "G3", "G6", "G7")
    assert c.outputs == ("G22", "G23")
    assert load_benchmark("c17").gates == c.gates
