"""BENCH format reader / writer.

BENCH is the de-facto exchange format of the logic-locking community
(ISCAS-85 / ITC-99 distributions, SWEEP, SCOPE and the released MuxLink
artifacts all use it).  Grammar handled here::

    # comment                      (a leading ``#key=0101`` records the key)
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = MUX(keyinput0, G10, G2)  (extended primitive used by MUX locking)

Gate-name synonyms accepted on input: ``INV``/``NOT``, ``BUFF``/``BUF``.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from repro.errors import BenchFormatError
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gates import GateType

__all__ = ["parse_bench", "load_bench", "write_bench", "dump_bench"]

_SYNONYMS = {
    "INV": GateType.NOT,
    "NOT": GateType.NOT,
    "BUFF": GateType.BUF,
    "BUF": GateType.BUF,
}

_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s()]+)\s*\)$")
_GATE_RE = re.compile(r"^([^\s=()]+)\s*=\s*([A-Za-z]+)\s*\(\s*(.*?)\s*\)$")
_KEY_RE = re.compile(r"^#\s*key\s*=\s*([01xX]+)\s*$")


def _gate_type(token: str, line_no: int) -> GateType:
    upper = token.upper()
    if upper in _SYNONYMS:
        return _SYNONYMS[upper]
    try:
        return GateType(upper)
    except ValueError:
        raise BenchFormatError(
            f"line {line_no}: unknown gate type {token!r}"
        ) from None


def parse_bench(text: str, name: str = "circuit") -> tuple[Circuit, str | None]:
    """Parse BENCH *text*.

    Returns:
        ``(circuit, key)`` where *key* is the string from a ``#key=`` comment
        (``None`` when absent).  Gate order in the file need not be
        topological; definitions are resolved after reading the whole file.

    Raises:
        ReproError: a :class:`BenchFormatError` for malformed text, cyclic
            or undriven nets and duplicate gate definitions; a
            :class:`NetlistError` for structural faults (arity, duplicate
            inputs, undriven outputs).
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gate_defs: list[tuple[str, GateType, tuple[str, ...]]] = []
    key: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _KEY_RE.match(line)
            if match:
                key = match.group(1)
            continue
        match = _IO_RE.match(line)
        if match:
            kind, net = match.groups()
            (inputs if kind == "INPUT" else outputs).append(net)
            continue
        match = _GATE_RE.match(line)
        if match:
            out, type_token, arg_text = match.groups()
            args = tuple(a.strip() for a in arg_text.split(",") if a.strip())
            if not args:
                raise BenchFormatError(
                    f"line {line_no}: gate {out!r} has no inputs"
                )
            gate_defs.append((out, _gate_type(type_token, line_no), args))
            continue
        raise BenchFormatError(f"line {line_no}: cannot parse {raw!r}")

    circuit = Circuit(name, inputs=inputs)
    # Definitions may be out of topological order; add in dependency order.
    pending = {out: (gt, args) for out, gt, args in gate_defs}
    if len(pending) != len(gate_defs):
        counts = Counter(out for out, _, _ in gate_defs)
        dupes = sorted(out for out, n in counts.items() if n > 1)
        raise BenchFormatError(f"duplicate gate definitions: {dupes!r}")
    while pending:
        progressed = False
        for out in list(pending):
            gate_type, args = pending[out]
            if all(circuit.has_net(a) for a in args):
                circuit.add_gate(Gate(out, gate_type, args))
                del pending[out]
                progressed = True
        if not progressed:
            stuck = sorted(pending)[:8]
            raise BenchFormatError(
                f"unresolvable nets (undriven or cyclic): {stuck!r}"
            )
    for po in outputs:
        circuit.add_output(po)
    circuit.validate()
    return circuit, key


def load_bench(path: str | Path) -> tuple[Circuit, str | None]:
    """Read a BENCH file from disk; circuit name is the file stem.

    A missing, unreadable or non-UTF-8 file raises
    :class:`BenchFormatError` naming *path*.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BenchFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise BenchFormatError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    return parse_bench(text, name=path.stem)


def write_bench(circuit: Circuit, key: str | None = None) -> str:
    """Serialize *circuit* to BENCH text (topologically ordered gates)."""
    lines = [f"# {circuit.name}"]
    if key is not None:
        lines.append(f"#key={key}")
    lines.extend(f"INPUT({pi})" for pi in circuit.inputs)
    lines.extend(f"OUTPUT({po})" for po in circuit.outputs)
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        args = ", ".join(gate.inputs)
        lines.append(f"{name} = {gate.gate_type.value}({args})")
    return "\n".join(lines) + "\n"


def dump_bench(circuit: Circuit, path: str | Path, key: str | None = None) -> None:
    """Write *circuit* to *path* in BENCH format; a path that cannot be
    written raises :class:`BenchFormatError` naming it."""
    try:
        Path(path).write_text(write_bench(circuit, key=key), encoding="utf-8")
    except OSError as exc:
        raise BenchFormatError(f"cannot write {path}: {exc.strerror}") from exc
