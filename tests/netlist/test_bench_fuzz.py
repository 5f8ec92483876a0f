"""Hypothesis fuzz of :func:`parse_bench`, the cold CLI's first input.

A BENCH file comes from outside the process, so every malformed one
must fail with a typed :class:`~repro.errors.ReproError` (which the CLI
turns into ``error: …`` and exit 2), never another exception.  Each
case starts from a random well-formed netlist and plants one fault:
a cycle, an undefined net or a duplicate definition.  A locked netlist
with no stored key is valid input (the attack is oracle-less) and parses
with ``key=None``; one whose stored key does not fit its key inputs
parses, and the commands that score against that key exit 2 before
attacking.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_benchmark, lock_dmux
from repro.cli import main
from repro.errors import BenchFormatError, ReproError
from repro.netlist import parse_bench, write_bench

TWO_INPUT = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]


@st.composite
def netlists(draw):
    """``(inputs, outputs, gates)`` of a random acyclic netlist.

    ``gates`` is a list of ``[name, type, args]``, in topological order.
    """
    inputs = [f"I{i}" for i in range(draw(st.integers(1, 4)))]
    nets = list(inputs)
    gates = []
    for index in range(draw(st.integers(1, 8))):
        gate_type = draw(st.sampled_from(TWO_INPUT + ["NOT", "BUF"]))
        arity = 1 if gate_type in ("NOT", "BUF") else 2
        args = [draw(st.sampled_from(nets)) for _ in range(arity)]
        gates.append([f"G{index}", gate_type, args])
        nets.append(f"G{index}")
    return inputs, [gates[-1][0]], gates


def render(inputs, outputs, gates, key=None, order=None):
    lines = [f"#key={key}"] if key is not None else []
    lines += [f"INPUT({net})" for net in inputs]
    lines += [f"OUTPUT({net})" for net in outputs]
    for name, gate_type, args in order if order is not None else gates:
        lines.append(f"{name} = {gate_type}({', '.join(args)})")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(netlists(), st.randoms(use_true_random=False))
def test_well_formed_netlists_parse_in_any_gate_order(netlist, rng):
    inputs, outputs, gates = netlist
    order = list(gates)
    rng.shuffle(order)
    circuit, key = parse_bench(render(inputs, outputs, gates, order=order))
    assert key is None
    assert circuit.inputs == tuple(inputs)
    assert len(circuit) == len(gates)


@settings(max_examples=60, deadline=None)
@given(netlists(), st.data())
def test_cycles_raise_bench_format_error(netlist, data):
    inputs, outputs, gates = netlist
    # Gate j reads gate i >= j and every gate after j reads the one
    # before it: the loop j -> j+1 -> ... -> i -> j.
    j = data.draw(st.integers(0, len(gates) - 1))
    i = data.draw(st.integers(j, len(gates) - 1))
    gates[j][2][0] = gates[i][0]
    for k in range(j + 1, i + 1):
        gates[k][2][0] = gates[k - 1][0]
    with pytest.raises(BenchFormatError, match="cyclic"):
        parse_bench(render(inputs, outputs, gates))


@settings(max_examples=60, deadline=None)
@given(netlists(), st.data(), st.booleans())
def test_undefined_nets_raise_repro_error(netlist, data, as_output):
    inputs, outputs, gates = netlist
    if as_output:
        outputs = outputs + ["UNDEFINED"]
    else:
        gate = data.draw(st.sampled_from(gates))
        gate[2][-1] = "UNDEFINED"
    with pytest.raises(ReproError):
        parse_bench(render(inputs, outputs, gates))


@settings(max_examples=60, deadline=None)
@given(netlists(), st.data(), st.sampled_from(["gate", "input", "gate-input"]))
def test_duplicate_definitions_raise_repro_error(netlist, data, kind):
    inputs, outputs, gates = netlist
    if kind == "gate":
        name = data.draw(st.sampled_from(gates))[0]
        gates = gates + [[name, "BUF", [inputs[0]]]]
        with pytest.raises(BenchFormatError, match=f"'{name}'"):
            parse_bench(render(inputs, outputs, gates))
        return
    if kind == "input":
        inputs = inputs + [data.draw(st.sampled_from(inputs))]
    else:
        gates = gates + [[data.draw(st.sampled_from(inputs)), "NOT", ["I0"]]]
    with pytest.raises(ReproError):
        parse_bench(render(inputs, outputs, gates))


@pytest.fixture(scope="module")
def locked():
    return lock_dmux(load_benchmark("c17"), key_size=4, seed=1)


def test_locked_netlist_without_key_parses_with_no_key(locked):
    text = write_bench(locked.circuit)
    circuit, key = parse_bench(text)
    assert key is None
    assert circuit.inputs == locked.circuit.inputs
    assert parse_bench(write_bench(locked.circuit, key=locked.key))[1] == locked.key


@settings(max_examples=25, deadline=None)
@given(
    st.text(alphabet="01xX", min_size=1, max_size=9).filter(lambda k: len(k) != 4),
    st.sampled_from(["attack", "saam", "scope"]),
)
def test_misfit_stored_key_exits_2_before_the_attack(locked, tmp_path_factory, key, command):
    netlist = tmp_path_factory.mktemp("misfit") / "locked.bench"
    netlist.write_text(write_bench(locked.circuit, key=key))
    assert parse_bench(netlist.read_text())[1] == key
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main([command, str(netlist)]) == 2
    assert "stored key has" in err.getvalue()


LINE = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{} = {}({})".format,
        st.sampled_from(["I0", "G0", "G1", "keyinput0", ""]),
        st.sampled_from(TWO_INPUT + ["NOT", "MUX", "DFF", "buff", "X"]),
        st.lists(st.sampled_from(["I0", "I1", "G0", "G1", "keyinput0", " "]),
                 max_size=4).map(", ".join),
    ),
    st.sampled_from(
        ["INPUT(I0)", "INPUT(I1)", "INPUT(keyinput0)", "OUTPUT(G0)",
         "OUTPUT(G1)", "INPUT()", "#key=1", "#key=", "G0 = AND(I0, I1"]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LINE, max_size=12))
def test_arbitrary_text_parses_or_raises_repro_error(lines):
    try:
        parse_bench("\n".join(lines))
    except ReproError:
        pass
