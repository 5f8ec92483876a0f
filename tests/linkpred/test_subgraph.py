"""Tests for enclosing-subgraph extraction and DRNL labelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import random_netlist
from repro.linkpred import (
    drnl_label,
    extract_attack_graph,
    extract_enclosing_subgraph,
)
from repro.locking import lock_dmux


def graph_for(seed=0, key_size=6):
    base = random_netlist("base", 10, 5, 100, seed=seed)
    locked = lock_dmux(base, key_size=key_size, seed=seed)
    return extract_attack_graph(locked.circuit)


# ------------------------------------------------------------------ DRNL
def test_drnl_targets_get_one():
    assert drnl_label(0, 5) == 1
    assert drnl_label(3, 0) == 1


def test_drnl_unreachable_gets_zero():
    assert drnl_label(None, 4) == 0
    assert drnl_label(2, None) == 0
    assert drnl_label(None, None) == 0


def test_drnl_formula_values():
    # Eq. 3: fl = 1 + min(df, dg) + (d/2)[(d/2) + (d%2) - 1]
    assert drnl_label(1, 1) == 2  # 1 + 1 + 1*(1+0-1) = 2
    assert drnl_label(1, 2) == 3  # 1 + 1 + 1*(1+1-1) = 3
    assert drnl_label(2, 2) == 5  # 1 + 2 + 2*(2+0-1) = 5
    assert drnl_label(2, 3) == 7  # 1 + 2 + 2*(2+1-1) = 7


def test_drnl_rejects_double_zero():
    with pytest.raises(ValueError):
        drnl_label(0, 0)


@given(st.integers(1, 20), st.integers(1, 20))
def test_drnl_positive_and_symmetric(df, dg):
    assert drnl_label(df, dg) >= 2
    assert drnl_label(df, dg) == drnl_label(dg, df)


# ------------------------------------------------------- subgraph extraction
def test_targets_are_first_two_nodes():
    graph = graph_for()
    target = graph.targets[0]
    sub = extract_enclosing_subgraph(graph, target.cand_d0, target.load, h=2)
    assert sub.nodes[0] == target.cand_d0
    assert sub.nodes[1] == target.load
    assert sub.labels[0] == 1
    assert sub.labels[1] == 1


def test_h_controls_membership():
    graph = graph_for(seed=1)
    u, v = graph.edges()[0]
    small = extract_enclosing_subgraph(graph, u, v, h=1)
    large = extract_enclosing_subgraph(graph, u, v, h=3)
    assert small.n_nodes <= large.n_nodes
    assert set(small.nodes) <= set(large.nodes)


def test_h1_membership_is_exact():
    """h=1 subgraph = closed neighborhoods of both targets."""
    graph = graph_for(seed=2)
    u, v = graph.edges()[5]
    sub = extract_enclosing_subgraph(graph, u, v, h=1)
    nbrs_u = set(graph.neighbor_array(u).tolist())
    nbrs_v = set(graph.neighbor_array(v).tolist())
    expected = ({u, v} | nbrs_u | nbrs_v) - ({u} if u in nbrs_v else set())
    expected |= {u, v}
    assert set(sub.nodes) == expected


def test_direct_edge_removed():
    """Even for an observed wire, the subgraph must not contain the link."""
    graph = graph_for(seed=3)
    u, v = graph.edges()[0]
    sub = extract_enclosing_subgraph(graph, u, v, h=2)
    local_u = list(sub.nodes).index(u)
    local_v = list(sub.nodes).index(v)
    for a, b in sub.edges:
        assert {a, b} != {local_u, local_v}


def test_edges_are_local_and_valid():
    graph = graph_for(seed=4)
    target = graph.targets[0]
    sub = extract_enclosing_subgraph(graph, target.cand_d1, target.load, h=2)
    if sub.edges.size:
        assert sub.edges.min() >= 0
        assert sub.edges.max() < sub.n_nodes
    # Every local edge corresponds to a real observed edge.
    for a, b in sub.edges:
        assert graph.has_edge(int(sub.nodes[a]), int(sub.nodes[b]))


def test_degrees_match_full_graph():
    graph = graph_for(seed=5)
    u, v = graph.edges()[2]
    sub = extract_enclosing_subgraph(graph, u, v, h=2)
    for local, node in enumerate(sub.nodes):
        assert sub.degrees[local] == len(graph.neighbor_array(int(node)))


def test_input_validation():
    graph = graph_for(seed=6)
    with pytest.raises(ValueError):
        extract_enclosing_subgraph(graph, 0, 0, h=2)
    with pytest.raises(ValueError):
        extract_enclosing_subgraph(graph, 0, 1, h=0)


def test_labels_nonnegative_and_targets_distinct():
    graph = graph_for(seed=7)
    for target in graph.targets[:3]:
        for driver, load, _ in target.candidates():
            sub = extract_enclosing_subgraph(graph, driver, load, h=3)
            assert (sub.labels >= 0).all()
            assert sub.labels[0] == 1 and sub.labels[1] == 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 30), h=st.integers(1, 3))
def test_subgraph_invariants_property(seed, h):
    graph = graph_for(seed=seed, key_size=4)
    target = graph.targets[seed % len(graph.targets)]
    sub = extract_enclosing_subgraph(graph, target.cand_d0, target.load, h=h)
    assert sub.n_nodes >= 2
    assert len(sub.labels) == sub.n_nodes
    assert len(sub.gate_type_ids) == sub.n_nodes
    assert len(np.unique(sub.nodes)) == sub.n_nodes
