"""Mutable gate-level netlist with structural queries.

A :class:`Circuit` is a named DAG of :class:`Gate` instances.  A *net* is
identified by the name of its driver — either a primary input or a gate.
Primary outputs reference nets by name.  This is exactly the information
content of a combinational BENCH file.

The locking passes in :mod:`repro.locking` mutate circuits through the
editing API (:meth:`Circuit.add_gate`, :meth:`Circuit.rewire_input`, …);
all structural caches are invalidated on mutation and rebuilt lazily.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import NetlistError
from repro.netlist.gates import GateType, gate_arity_ok

__all__ = ["Gate", "Circuit", "CircuitStats"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class Gate:
    """A single gate instance.

    Attributes:
        name: net name driven by this gate (unique within the circuit).
        gate_type: the Boolean primitive.
        inputs: ordered fan-in net names.  For ``MUX`` the order is
            ``(select, d0, d1)``.
    """

    name: str
    gate_type: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("gate name must be non-empty")
        if not gate_arity_ok(self.gate_type, len(self.inputs)):
            raise NetlistError(
                f"gate {self.name!r}: {self.gate_type!s} cannot take "
                f"{len(self.inputs)} input(s)"
            )


@dataclass(frozen=True)
class CircuitStats:
    """Structural summary used by attacks and reports."""

    num_inputs: int
    num_outputs: int
    num_gates: int
    num_nets: int
    gate_counts: dict[str, int] = field(hash=False, default_factory=dict)
    depth: int = 0


class Circuit:
    """A combinational netlist.

    Args:
        name: circuit name (used in BENCH headers and reports).
        inputs: primary-input net names.
        outputs: primary-output net names (each must be driven).
        gates: gate instances in any order; stored in insertion order.
    """

    def __init__(
        self,
        name: str,
        inputs: list[str] | None = None,
        outputs: list[str] | None = None,
        gates: list[Gate] | None = None,
    ) -> None:
        self.name = name
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._fanouts: dict[str, list[str]] | None = None
        self._topo: list[str] | None = None
        self._output_counts: dict[str, int] | None = None
        self._derived: dict[str, object] = {}
        for pi in inputs or []:
            self.add_input(pi)
        for gate in gates or []:
            self.add_gate(gate)
        for po in outputs or []:
            self.add_output(po)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary-input net names in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary-output net names in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """All gates in insertion order."""
        return tuple(self._gates.values())

    @property
    def gate_names(self) -> tuple[str, ...]:
        return tuple(self._gates.keys())

    def gate(self, name: str) -> Gate:
        """Return the gate driving net *name*."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate drives net {name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._gates

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def is_output(self, net: str) -> bool:
        return net in self._output_count_map()

    def has_net(self, net: str) -> bool:
        return net in self._input_set or net in self._gates

    @property
    def nets(self) -> tuple[str, ...]:
        """All net names: primary inputs followed by gate outputs."""
        return tuple(self._inputs) + tuple(self._gates.keys())

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, {len(self._inputs)} PI, "
            f"{len(self._outputs)} PO, {len(self._gates)} gates)"
        )

    # ------------------------------------------------------------------
    # Editing API
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._fanouts = None
        self._topo = None
        self._outputs_changed()

    def _outputs_changed(self) -> None:
        self._output_counts = None
        self._derived.clear()

    def derived(self, key: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, cached under *key* until the netlist next changes.

        For whole-netlist values computed outside this class, such as the
        artifact store's content digest: every editing method drops them.
        The circuit's ``name`` is not part of the netlist and may change
        freely, so a cached value must not depend on it.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = compute()
            return value

    def _output_count_map(self) -> dict[str, int]:
        """Cached multiset of primary-output references (net -> count).

        Rebuilt lazily after any mutation, like ``_fanouts``/``_topo``, so
        :meth:`is_output` and :meth:`fanout_size` stay O(1) instead of
        scanning ``_outputs`` on every call.
        """
        if self._output_counts is None:
            counts: dict[str, int] = {}
            for po in self._outputs:
                counts[po] = counts.get(po, 0) + 1
            self._output_counts = counts
        return self._output_counts

    def add_input(self, name: str) -> None:
        """Declare a new primary input."""
        if name in self._input_set:
            raise NetlistError(f"duplicate primary input {name!r}")
        if name in self._gates:
            raise NetlistError(f"net {name!r} already driven by a gate")
        self._inputs.append(name)
        self._input_set.add(name)
        self._invalidate()

    def remove_input(self, name: str) -> None:
        """Remove an unused primary input (no loads, not an output)."""
        if name not in self._input_set:
            raise NetlistError(f"{name!r} is not a primary input")
        if self.fanout(name) or name in self._output_count_map():
            raise NetlistError(f"primary input {name!r} is still in use")
        self._inputs.remove(name)
        self._input_set.discard(name)
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Declare an existing net as a primary output."""
        if not self.has_net(name):
            raise NetlistError(f"primary output {name!r} is not driven")
        self._outputs.append(name)
        self._outputs_changed()

    def add_gate(self, gate: Gate) -> None:
        """Add a gate; its fan-in nets must already exist."""
        if gate.name in self._gates:
            raise NetlistError(f"duplicate gate {gate.name!r}")
        if gate.name in self._input_set:
            raise NetlistError(
                f"gate {gate.name!r} collides with a primary input"
            )
        for net in gate.inputs:
            if not self.has_net(net):
                raise NetlistError(
                    f"gate {gate.name!r} references undriven net {net!r}"
                )
        self._gates[gate.name] = gate
        self._invalidate()

    def remove_gate(self, name: str) -> Gate:
        """Remove the gate driving *name*.

        The net must have no remaining loads (fan-out gates or primary
        outputs); remove the loads first.
        """
        gate = self.gate(name)
        loads = self.fanout(name)
        if loads:
            raise NetlistError(
                f"cannot remove {name!r}: still feeds {sorted(loads)!r}"
            )
        if name in self._output_count_map():
            raise NetlistError(f"cannot remove {name!r}: is a primary output")
        del self._gates[name]
        self._invalidate()
        return gate

    def rewire_input(self, gate_name: str, old_net: str, new_net: str) -> None:
        """Replace one fan-in net of a gate (first occurrence only)."""
        gate = self.gate(gate_name)
        if old_net not in gate.inputs:
            raise NetlistError(
                f"gate {gate_name!r} has no input {old_net!r}"
            )
        if not self.has_net(new_net):
            raise NetlistError(f"net {new_net!r} is not driven")
        inputs = list(gate.inputs)
        inputs[inputs.index(old_net)] = new_net
        self._gates[gate_name] = Gate(gate.name, gate.gate_type, tuple(inputs))
        self._invalidate()

    def replace_gate(self, gate: Gate) -> None:
        """Replace an existing gate (same name) with a new definition."""
        if gate.name not in self._gates:
            raise NetlistError(f"no gate {gate.name!r} to replace")
        for net in gate.inputs:
            if not self.has_net(net):
                raise NetlistError(
                    f"gate {gate.name!r} references undriven net {net!r}"
                )
        self._gates[gate.name] = gate
        self._invalidate()

    def rename_gate(self, old: str, new: str) -> None:
        """Rename the gate driving *old* to *new*, updating loads and POs."""
        gate = self.gate(old)
        if self.has_net(new):
            raise NetlistError(f"net {new!r} already exists")
        self._gates = {
            (new if name == old else name): (
                Gate(new, g.gate_type, g.inputs) if name == old else g
            )
            for name, g in self._gates.items()
        }
        for load_name, load in list(self._gates.items()):
            if old in load.inputs:
                inputs = tuple(new if n == old else n for n in load.inputs)
                self._gates[load_name] = Gate(load.name, load.gate_type, inputs)
        self._outputs = [new if po == old else po for po in self._outputs]
        self._invalidate()

    def redirect_output(self, old_net: str, new_net: str) -> None:
        """Re-point every primary-output reference from *old_net* to *new_net*."""
        if not self.has_net(new_net):
            raise NetlistError(f"net {new_net!r} is not driven")
        self._outputs = [new_net if po == old_net else po for po in self._outputs]
        self._outputs_changed()

    def fresh_name(self, prefix: str) -> str:
        """Return a net name starting with *prefix* not used in the circuit."""
        if not self.has_net(prefix):
            return prefix
        idx = 0
        while self.has_net(f"{prefix}_{idx}"):
            idx += 1
        return f"{prefix}_{idx}"

    @classmethod
    def from_parts(
        cls,
        name: str,
        inputs: list[str],
        outputs: list[str],
        gates: list[Gate],
    ) -> "Circuit":
        """Rebuild a circuit from its serialized parts, preserving gate order.

        Unlike feeding *gates* through :meth:`add_gate` (which requires
        fan-in nets to exist already, i.e. a topological insertion order),
        this accepts gates in **any** order and keeps exactly that order —
        attack-graph node indices follow ``Circuit.gates`` iteration
        order, so a deserialized circuit must reproduce the original
        insertion order bit for bit.  Structure is checked once at the
        end via :meth:`validate`.
        """
        circuit = cls(name, inputs=list(inputs))
        for gate in gates:
            if gate.name in circuit._gates:
                raise NetlistError(f"duplicate gate {gate.name!r}")
            if gate.name in circuit._input_set:
                raise NetlistError(
                    f"gate {gate.name!r} collides with a primary input"
                )
            circuit._gates[gate.name] = gate
        circuit._invalidate()
        for po in outputs:
            circuit.add_output(po)
        circuit.validate()
        return circuit

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep copy (gates are immutable, so this is cheap)."""
        dup = Circuit.__new__(Circuit)
        dup.name = name if name is not None else self.name
        dup._inputs = list(self._inputs)
        dup._input_set = set(self._input_set)
        dup._outputs = list(self._outputs)
        dup._gates = dict(self._gates)
        dup._fanouts = None
        dup._topo = None
        dup._output_counts = None
        dup._derived = {}
        return dup

    def __deepcopy__(self, memo: dict) -> "Circuit":
        dup = self.copy()
        memo[id(self)] = dup
        return dup

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def _fanout_map(self) -> dict[str, list[str]]:
        if self._fanouts is None:
            fanouts: dict[str, list[str]] = {net: [] for net in self.nets}
            for gate in self._gates.values():
                for net in gate.inputs:
                    fanouts[net].append(gate.name)
            self._fanouts = fanouts
        return self._fanouts

    def fanout(self, net: str) -> tuple[str, ...]:
        """Gate names loading *net* (duplicates preserved for multi-pin)."""
        if not self.has_net(net):
            raise NetlistError(f"unknown net {net!r}")
        return tuple(self._fanout_map()[net])

    def fanout_size(self, net: str) -> int:
        """Number of gate loads plus primary-output references of *net*."""
        return len(self.fanout(net)) + self._output_count_map().get(net, 0)

    def is_multi_output(self, net: str) -> bool:
        """True if *net* drives more than one load (D-MUX terminology)."""
        return self.fanout_size(net) > 1

    def topological_order(self) -> tuple[str, ...]:
        """Gate names in topological order.

        Raises:
            NetlistError: if the circuit contains a combinational loop.
        """
        if self._topo is None:
            indeg: dict[str, int] = {}
            for gate in self._gates.values():
                indeg[gate.name] = sum(
                    1 for net in gate.inputs if net in self._gates
                )
            ready = deque(
                name for name, deg in indeg.items() if deg == 0
            )
            order: list[str] = []
            fanouts = self._fanout_map()
            while ready:
                name = ready.popleft()
                order.append(name)
                for load in fanouts[name]:
                    indeg[load] -= 1
                    if indeg[load] == 0:
                        ready.append(load)
            if len(order) != len(self._gates):
                cyclic = sorted(set(self._gates) - set(order))
                raise NetlistError(
                    f"combinational loop through gates {cyclic[:8]!r}"
                )
            self._topo = order
        return tuple(self._topo)

    def has_combinational_loop(self) -> bool:
        try:
            self.topological_order()
        except NetlistError:
            return True
        return False

    def creates_loop(self, driver: str, load_gate: str) -> bool:
        """Would adding edge *driver* → *load_gate* create a cycle?

        True iff *load_gate* currently reaches the gate driving *driver*.
        """
        if driver in self._input_set:
            return False
        return driver in self.transitive_fanout(load_gate) or driver == load_gate

    def transitive_fanout(self, net: str) -> set[str]:
        """All gate names reachable downstream of *net* (excluding itself)."""
        fanouts = self._fanout_map()
        seen: set[str] = set()
        frontier = deque(fanouts[net])
        while frontier:
            cur = frontier.popleft()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(fanouts[cur])
        return seen

    def transitive_fanin(self, net: str) -> set[str]:
        """All net names upstream of *net* (excluding itself)."""
        seen: set[str] = set()
        if net in self._gates:
            frontier = deque(self._gates[net].inputs)
        else:
            return seen
        while frontier:
            cur = frontier.popleft()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in self._gates:
                frontier.extend(self._gates[cur].inputs)
        return seen

    def depth(self) -> int:
        """Longest PI→PO path measured in gate levels."""
        levels: dict[str, int] = {pi: 0 for pi in self._inputs}
        for name in self.topological_order():
            gate = self._gates[name]
            levels[name] = 1 + max(
                (levels[net] for net in gate.inputs), default=0
            )
        return max((levels[po] for po in self._outputs), default=0)

    def validate(self) -> None:
        """Raise :class:`NetlistError` on any structural inconsistency."""
        for po in self._outputs:
            if not self.has_net(po):
                raise NetlistError(f"primary output {po!r} is not driven")
        for gate in self._gates.values():
            for net in gate.inputs:
                if not self.has_net(net):
                    raise NetlistError(
                        f"gate {gate.name!r} references undriven net {net!r}"
                    )
        self.topological_order()

    def stats(self) -> CircuitStats:
        """Structural summary (used by SWEEP/SCOPE feature extraction)."""
        counts: dict[str, int] = {}
        for gate in self._gates.values():
            counts[gate.gate_type.value] = counts.get(gate.gate_type.value, 0) + 1
        return CircuitStats(
            num_inputs=len(self._inputs),
            num_outputs=len(self._outputs),
            num_gates=len(self._gates),
            num_nets=len(self._inputs) + len(self._gates),
            gate_counts=counts,
            depth=self.depth(),
        )

    def dangling_nets(self) -> tuple[str, ...]:
        """Nets with no loads and not declared as primary outputs.

        A non-empty result after hard-coding a key bit is exactly the
        circuit-reduction signal exploited by SAAM.
        """
        out_map = self._output_count_map()
        return tuple(
            net
            for net in self.nets
            if not self._fanout_map()[net] and net not in out_map
        )
