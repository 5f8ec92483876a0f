"""Tests for the CSR attack-graph backbone and the batched extraction API.

The CSR arrays (``indptr``/``indices``) are the ground truth for the hot
path; these tests pin them against an independently built legacy-style
``list[set[int]]`` adjacency and check that the batched extractor is
permutation-identical to the single-pair API.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import benchmark_names, load_benchmark, random_netlist
from repro.linkpred import (
    extract_attack_graph,
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
    sample_links,
)
from repro.locking import lock_dmux


def locked_graph(seed=0, key_size=6, n_gates=120):
    base = random_netlist("base", 10, 5, n_gates, seed=seed)
    locked = lock_dmux(base, key_size=key_size, seed=seed)
    return extract_attack_graph(locked.circuit)


def reference_adjacency(graph):
    """Legacy-style ``list[set[int]]`` adjacency rebuilt from the edge list."""
    neighbors = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges():
        neighbors[u].add(v)
        neighbors[v].add(u)
    return neighbors


# ------------------------------------------------------------------ CSR layer
def test_csr_structure_invariants():
    graph = locked_graph()
    assert graph.indptr[0] == 0
    assert graph.indptr[-1] == len(graph.indices)
    assert len(graph.indptr) == graph.n_nodes + 1
    assert (np.diff(graph.indptr) >= 0).all()
    for u in range(graph.n_nodes):
        row = graph.neighbor_array(u)
        assert (np.diff(row) > 0).all()  # sorted, no duplicates
        assert (row != u).all()  # no self loops


def test_csr_symmetry():
    graph = locked_graph(seed=2)
    for u in range(graph.n_nodes):
        for v in graph.neighbor_array(u):
            assert graph.has_edge(int(v), u)


@pytest.mark.parametrize("name", benchmark_names()[:4])
def test_csr_matches_legacy_adjacency_on_benchmarks(name):
    """CSR neighbors equal the set-based adjacency on generated benchmarks."""
    base = load_benchmark(name, scale=0.1)
    locked = lock_dmux(base, key_size=8, seed=0)
    graph = extract_attack_graph(locked.circuit)
    # Rebuild the adjacency the way the legacy extractor did: straight from
    # the circuit's gate fan-ins, restricted to graph nodes.
    neighbors = [set() for _ in range(graph.n_nodes)]
    for gate_name in graph.node_names:
        v = graph.index[gate_name]
        for net in locked.circuit.gate(gate_name).inputs:
            if net in graph.index:
                u = graph.index[net]
                if u != v:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
    for u in range(graph.n_nodes):
        assert set(graph.neighbor_array(u).tolist()) == neighbors[u]


def test_edges_array_matches_edges():
    graph = locked_graph(seed=3)
    arr = graph.edges_array()
    assert arr.shape[1] == 2
    assert (arr[:, 0] < arr[:, 1]).all()
    assert [tuple(r) for r in arr.tolist()] == graph.edges()
    assert graph.n_edges() == len(arr)


def test_degrees_property():
    graph = locked_graph(seed=4)
    ref = reference_adjacency(graph)
    assert graph.degrees.tolist() == [len(s) for s in ref]


# -------------------------------------------------------------- batched API
def test_batched_extraction_matches_single_pair():
    """`extract_enclosing_subgraphs` is permutation-identical per pair."""
    graph = locked_graph(seed=5, key_size=8)
    sample = sample_links(graph, max_links=60, seed=5)
    pairs = [(u, v) for u, v, _ in sample.train + sample.validation]
    pairs += [
        (driver, load)
        for target in graph.targets
        for driver, load, _ in target.candidates()
    ]
    batch = extract_enclosing_subgraphs(graph, pairs, h=2)
    assert len(batch) == len(pairs)
    for (u, v), sub in zip(pairs, batch):
        single = extract_enclosing_subgraph(graph, u, v, h=2)
        np.testing.assert_array_equal(sub.nodes, single.nodes)
        np.testing.assert_array_equal(sub.labels, single.labels)
        np.testing.assert_array_equal(sub.edges, single.edges)
        np.testing.assert_array_equal(sub.gate_type_ids, single.gate_type_ids)
        np.testing.assert_array_equal(sub.degrees, single.degrees)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 25), h=st.integers(1, 3))
def test_batched_extraction_property(seed, h):
    graph = locked_graph(seed=seed, key_size=4)
    pairs = [
        (driver, load)
        for target in graph.targets
        for driver, load, _ in target.candidates()
    ]
    batch = extract_enclosing_subgraphs(graph, pairs, h=h)
    for (u, v), sub in zip(pairs, batch):
        single = extract_enclosing_subgraph(graph, u, v, h=h)
        np.testing.assert_array_equal(sub.nodes, single.nodes)
        np.testing.assert_array_equal(sub.labels, single.labels)
        np.testing.assert_array_equal(sub.edges, single.edges)


def test_batched_extraction_validates_input():
    graph = locked_graph(seed=6)
    with pytest.raises(ValueError):
        extract_enclosing_subgraphs(graph, [(0, 0)], h=2)
    with pytest.raises(ValueError):
        extract_enclosing_subgraphs(graph, [(0, 1)], h=0)
    assert extract_enclosing_subgraphs(graph, [], h=2) == []
