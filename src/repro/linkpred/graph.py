"""Locked netlist → undirected attack graph (paper Sec. III-A, step 1–2).

MuxLink first identifies the key-controlled MUXes by tracing the key
inputs, removes them from the netlist, and converts the rest to an
undirected gate graph.  Primary inputs and outputs are *not* nodes — the
GNN learns the composition of gates, nothing else.  Every data input of a
removed MUX becomes a *target link* candidate.

The adjacency is stored in CSR form (``indptr``/``indices`` int32 arrays
with the neighbor list of node ``u`` at ``indices[indptr[u]:indptr[u+1]]``,
sorted ascending).  The whole subgraph-extraction hot path
(:mod:`repro.linkpred.subgraph`) operates on these flat arrays with
vectorized numpy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AttackError
from repro.locking.keys import is_key_input, key_input_index
from repro.netlist import Circuit, GateType, gate_feature_index

__all__ = ["AttackGraph", "MuxTarget", "extract_attack_graph"]


@dataclass(frozen=True)
class MuxTarget:
    """One removed key MUX and its two candidate links.

    Attributes:
        mux_name: name of the removed MUX gate.
        key_index: key bit driving its select pin.
        load: node index of the locked gate.
        cand_d0: node index of the data-0 net (passed when the key bit is 0).
        cand_d1: node index of the data-1 net.
    """

    mux_name: str
    key_index: int
    load: int
    cand_d0: int
    cand_d1: int

    def candidates(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """``(driver, load, select_value)`` for both candidate links."""
        return (self.cand_d0, self.load, 0), (self.cand_d1, self.load, 1)


@dataclass(eq=False)
class AttackGraph:
    """Undirected gate graph with the key MUXes stripped out.

    Attributes:
        node_names: gate name per node index.
        index: inverse mapping.
        indptr: CSR row pointer, shape ``(n_nodes + 1,)``.
        indices: CSR column indices (neighbors, sorted per row) over
            *observed* links only — target links and key logic excluded.
        gate_types: per-node Boolean function (never ``MUX``).
        gate_feature_ids: per-node feature row (0–7), precomputed once so
            extraction never touches the enum in the hot path.
        targets: one record per removed key MUX.
    """

    node_names: list[str]
    index: dict[str, int]
    indptr: np.ndarray
    indices: np.ndarray
    gate_types: list[GateType]
    gate_feature_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    targets: list[MuxTarget] = field(default_factory=list)

    def __post_init__(self) -> None:
        # int32 halves the memory bandwidth of the extraction hot path;
        # gate-level netlists stay far below 2**31 nodes/edges.
        self.indptr = np.asarray(self.indptr, dtype=np.int32)
        self.indices = np.asarray(self.indices, dtype=np.int32)
        if self.gate_feature_ids is None:
            self.gate_feature_ids = np.array(
                [gate_feature_index(gt) for gt in self.gate_types],
                dtype=np.int64,
            )

    @classmethod
    def from_neighbor_sets(
        cls,
        node_names: list[str],
        index: dict[str, int],
        neighbors: list[set[int]],
        gate_types: list[GateType],
        targets: list[MuxTarget],
    ) -> "AttackGraph":
        """Build the CSR arrays from a ``list[set[int]]`` adjacency."""
        degrees = np.fromiter(
            (len(n) for n in neighbors), dtype=np.int32, count=len(neighbors)
        )
        indptr = np.zeros(len(neighbors) + 1, dtype=np.int32)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for u, nbrs in enumerate(neighbors):
            indices[indptr[u] : indptr[u + 1]] = sorted(nbrs)
        return cls(
            node_names=node_names,
            index=index,
            indptr=indptr,
            indices=indices,
            gate_types=gate_types,
            targets=targets,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def degrees(self) -> np.ndarray:
        """Observed degree per node, shape ``(n_nodes,)``."""
        return np.diff(self.indptr)

    def neighbor_array(self, node: int) -> np.ndarray:
        """Neighbors of *node* as a sorted int32 array view (no copy)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def n_edges(self) -> int:
        return len(self.indices) // 2

    def edges_array(self) -> np.ndarray:
        """All observed undirected edges as an ``(E, 2)`` array, ``u < v``.

        Rows are ordered by ``u`` then ``v`` (CSR rows are sorted), so the
        result is deterministic for a given graph.
        """
        u = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees)
        v = self.indices
        keep = u < v
        return np.column_stack((u[keep], v[keep]))

    def edges(self) -> list[tuple[int, int]]:
        """All observed undirected edges as ``(u, v)`` tuples with ``u < v``."""
        return [tuple(row) for row in self.edges_array().tolist()]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbor_array(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and row[pos] == v


def _is_key_mux(circuit: Circuit, name: str) -> bool:
    gate = circuit.gate(name)
    return gate.gate_type is GateType.MUX and is_key_input(gate.inputs[0])


def extract_attack_graph(circuit: Circuit) -> AttackGraph:
    """Build the attack graph of a MUX-locked netlist.

    Raises:
        AttackError: if the netlist has no key MUXes, contains non-key
            MUX primitives (no feature encoding), or a MUX data input /
            load that is not a gate (cannot become a graph node).
    """
    key_muxes = [
        g.name for g in circuit.gates if _is_key_mux(circuit, g.name)
    ]
    if not key_muxes:
        raise AttackError("no key-controlled MUXes found in the netlist")
    key_mux_set = set(key_muxes)

    for gate in circuit.gates:
        if gate.gate_type is GateType.MUX and gate.name not in key_mux_set:
            raise AttackError(
                f"non-key MUX {gate.name!r}: MuxLink expects all MUX "
                "primitives to be key gates"
            )

    node_names = [g.name for g in circuit.gates if g.name not in key_mux_set]
    index = {name: i for i, name in enumerate(node_names)}
    neighbors: list[set[int]] = [set() for _ in node_names]
    gate_types = [circuit.gate(name).gate_type for name in node_names]

    for name in node_names:
        v = index[name]
        for net in circuit.gate(name).inputs:
            if net in index:
                u = index[net]
                if u != v:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
            # Primary inputs and key MUX outputs are skipped: the former
            # are not nodes, the latter become target links below.

    targets: list[MuxTarget] = []
    for mux_name in key_muxes:
        gate = circuit.gate(mux_name)
        select, d0, d1 = gate.inputs
        loads = [
            load for load in circuit.fanout(mux_name) if load not in key_mux_set
        ]
        if not loads:
            raise AttackError(f"key MUX {mux_name!r} drives no gate")
        for net in (d0, d1):
            if net not in index:
                raise AttackError(
                    f"key MUX {mux_name!r} data input {net!r} is not a "
                    "gate net; cannot form a target link"
                )
        for load in loads:
            targets.append(
                MuxTarget(
                    mux_name=mux_name,
                    key_index=key_input_index(select),
                    load=index[load],
                    cand_d0=index[d0],
                    cand_d1=index[d1],
                )
            )
    return AttackGraph.from_neighbor_sets(
        node_names=node_names,
        index=index,
        neighbors=neighbors,
        gate_types=gate_types,
        targets=targets,
    )
