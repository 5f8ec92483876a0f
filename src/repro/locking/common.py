"""Shared machinery for MUX-based locking: localities, safe insertion.

Terminology follows the D-MUX paper (Fig. 4): a *locality* is one obfuscated
neighbourhood — the pair of source nets ``{fi, fj}``, the locked load gates
``{gi, gj}`` and the key-controlled MUX(es) between them.  MuxLink's
post-processing consumes localities strategy-by-strategy, so every locking
pass records exactly what it inserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LockingError
from repro.netlist import Circuit, Gate, GateType
from repro.locking.keys import key_input_name

__all__ = ["Strategy", "MuxInstance", "Locality", "LockedCircuit", "insert_key_mux"]


class Strategy(str, enum.Enum):
    """Locking strategies (paper Fig. 4); S1–S4 are D-MUX, S5 is symmetric."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"


@dataclass(frozen=True)
class MuxInstance:
    """One inserted key-controlled MUX.

    Attributes:
        mux_name: net name of the MUX gate.
        key_index: key bit driving the select input.
        load_gate: the locked gate ``g`` whose input pin was rewired.
        true_net: data input that must be passed for correct function.
        false_net: the decoy data input.
        select_for_true: key-bit value that selects ``true_net`` — i.e. the
            correct key bit (0 when the true net is wired to data pin d0).
    """

    mux_name: str
    key_index: int
    load_gate: str
    true_net: str
    false_net: str
    select_for_true: int

    @property
    def key_name(self) -> str:
        return key_input_name(self.key_index)


@dataclass(frozen=True)
class Locality:
    """One obfuscated locality: a strategy instance with its MUXes."""

    strategy: Strategy
    muxes: tuple[MuxInstance, ...]

    def key_indices(self) -> tuple[int, ...]:
        """Distinct key bits used, in insertion order."""
        seen: list[int] = []
        for mux in self.muxes:
            if mux.key_index not in seen:
                seen.append(mux.key_index)
        return tuple(seen)


@dataclass
class LockedCircuit:
    """Result of a locking pass.

    Attributes:
        circuit: the locked netlist (key inputs + MUX key-gates inserted).
        key: correct key string, index 0 first.
        localities: per-locality provenance for scoring attacks.
        scheme: human-readable scheme name (``"D-MUX"`` …).
        original_name: name of the unlocked source circuit.
    """

    circuit: Circuit
    key: str
    localities: list[Locality] = field(default_factory=list)
    scheme: str = ""
    original_name: str = ""

    @property
    def key_size(self) -> int:
        return len(self.key)

    def mux_instances(self) -> tuple[MuxInstance, ...]:
        return tuple(m for loc in self.localities for m in loc.muxes)


def insert_key_mux(
    circuit: Circuit,
    key_index: int,
    true_net: str,
    false_net: str,
    load_gate: str,
    rng: np.random.Generator,
    select_for_true: int | None = None,
) -> MuxInstance:
    """Insert one key-controlled MUX in front of *load_gate*.

    The pin where *load_gate* currently reads *true_net* is rewired to a new
    ``MUX(keyinput, d0, d1)``; the data-pin order (hence the correct key-bit
    value) is randomized unless *select_for_true* pins it.

    The caller is responsible for strategy-level viability; this helper
    enforces only the universal safety conditions:

    * the key input is created if it does not exist yet,
    * adding the decoy edge must not create a combinational loop,
    * *load_gate* must currently read *true_net*.

    Returns:
        The inserted :class:`MuxInstance`.
    """
    if true_net == false_net:
        raise LockingError("true and false nets must differ")
    load = circuit.gate(load_gate)
    if true_net not in load.inputs:
        raise LockingError(
            f"load gate {load_gate!r} does not read {true_net!r}"
        )
    # Decoy edge false_net -> MUX -> load_gate closes a cycle iff load_gate
    # reaches false_net (or is it).
    if false_net == load_gate or false_net in circuit.transitive_fanout(load_gate):
        raise LockingError(
            f"decoy {false_net!r} is in the fan-out cone of {load_gate!r}"
        )

    key_net = key_input_name(key_index)
    if not circuit.has_net(key_net):
        circuit.add_input(key_net)

    if select_for_true is None:
        select_for_true = int(rng.integers(2))
    if select_for_true == 0:
        d0, d1 = true_net, false_net
    else:
        d0, d1 = false_net, true_net

    mux_name = circuit.fresh_name(f"KGMUX{key_index}")
    circuit.add_gate(Gate(mux_name, GateType.MUX, (key_net, d0, d1)))
    circuit.rewire_input(load_gate, true_net, mux_name)
    return MuxInstance(
        mux_name=mux_name,
        key_index=key_index,
        load_gate=load_gate,
        true_net=true_net,
        false_net=false_net,
        select_for_true=select_for_true,
    )
