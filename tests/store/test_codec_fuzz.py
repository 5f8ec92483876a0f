"""Hypothesis fuzz of the flat codec: exact round trips, and hostile blobs
that must fail with :class:`CodecError` and nothing else."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.store import codec
from repro.store.codec import CodecError

KIND = "test"

_DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
)


def _layout(array: np.ndarray, how: str) -> np.ndarray:
    if how == "transposed":
        return array.T
    if how == "strided" and array.ndim:
        return array[::2]
    return array


_ARRAYS = st.builds(
    _layout,
    hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0)),
    st.sampled_from(["as-is", "transposed", "strided"]),
)
_NUMPY_SCALARS = _DTYPES.flatmap(
    lambda dtype: hnp.from_dtype(dtype).map(
        lambda value: np.asarray(value, dtype=dtype)[()]
    )
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])
    ),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]),
    st.text(max_size=8),
    _ARRAYS,
    _NUMPY_SCALARS,
)
_KEYS = st.text(max_size=6).filter(lambda k: k not in ("__array__", "__tuple__"))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


def _same(sent, back) -> bool:
    """Equal dtype, shape, bytes and container type; writable arrays."""
    if isinstance(sent, np.ndarray):
        return (
            type(back) is np.ndarray
            and back.dtype == sent.dtype
            and back.shape == sent.shape
            and back.tobytes() == sent.tobytes()
            and back.flags.writeable
        )
    if type(back) is not type(sent):
        return False
    if isinstance(sent, np.generic):
        return back.dtype == sent.dtype and back.tobytes() == sent.tobytes()
    if isinstance(sent, float):
        if math.isnan(sent):
            return math.isnan(back)
        return struct.pack("<d", sent) == struct.pack("<d", back)  # -0.0
    if isinstance(sent, (list, tuple)):
        return len(sent) == len(back) and all(map(_same, sent, back))
    if isinstance(sent, dict):
        return list(sent) == list(back) and all(
            _same(sent[key], back[key]) for key in sent
        )
    return sent == back


@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_round_trip_is_exact(tree):
    blob = codec.dumps(tree, KIND)
    assert _same(tree, codec.loads(blob, KIND))


def _blob(manifest, data: bytes = b"") -> bytes:
    """A blob laid out by hand, as the codec docstring describes it."""
    if not isinstance(manifest, bytes):
        manifest = json.dumps(manifest, separators=(",", ":")).encode()
    head = b"REPROART" + struct.pack("<Q", len(manifest)) + manifest
    return head + bytes(-len(head) % 64) + data


def _manifest(tree, arrays) -> dict:
    return {"codec": 2, "kind": KIND, "tree": tree, "arrays": arrays}


def test_documented_layout_is_what_dumps_writes():
    payload = {"a": np.arange(3, dtype="<f8"), "b": np.array(True)}
    data = np.arange(3, dtype="<f8").tobytes() + bytes(40) + b"\x01"
    expected = _blob(
        _manifest(
            {"a": {"__array__": 0}, "b": {"__array__": 1}},
            [["<f8", [3], 0, 24], ["|b1", [], 64, 1]],
        ),
        data,
    )
    assert codec.dumps(payload, KIND) == expected


@settings(max_examples=25, deadline=None)
@given(tree=_TREES)
def test_every_truncation_is_a_codec_error(tree):
    blob = codec.dumps(tree, KIND)
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            codec.loads(blob[:cut], KIND)


@settings(max_examples=150, deadline=None)
@given(tree=_TREES, data=st.data())
def test_single_byte_flips_decode_or_raise_codec_error(tree, data):
    blob = bytearray(codec.dumps(tree, KIND))
    where = data.draw(st.integers(0, len(blob) - 1))
    blob[where] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[where]))
    try:
        codec.loads(bytes(blob), KIND)
    except CodecError:
        pass


@settings(max_examples=150, deadline=None)
@given(junk=st.binary(max_size=256))
def test_random_bytes_are_a_codec_error(junk):
    with pytest.raises(CodecError):
        codec.loads(junk, KIND)
    try:  # behind a valid magic, junk may not raise anything else either
        codec.loads(b"REPROART" + junk, KIND)
    except CodecError:
        pass


_F8 = ["<f8", [2], 0, 16]


@pytest.mark.parametrize(
    "entry",
    [
        # dtypes: object, void, datetime, timedelta, strings, unparseable
        ["O", [2], 0, 16],
        ["|O", [2], 0, 16],
        ["|V8", [2], 0, 16],
        ["<M8[s]", [2], 0, 16],
        ["M8[s]", [2], 0, 16],
        ["<m8[s]", [2], 0, 16],
        ["<U2", [2], 0, 16],
        ["|S8", [2], 0, 16],
        ["(2,)<i4", [2], 0, 16],
        ["<i4,<i4", [2], 0, 16],
        ["<f3", [2], 0, 16],
        ["not a dtype", [2], 0, 16],
        [8, [2], 0, 16],
        [None, [2], 0, 16],
        # shapes: negative, non-int, overflowing, too many dimensions
        ["<f8", [-2], 0, -16],
        ["<f8", [2.0], 0, 16],
        ["<f8", ["2"], 0, 16],
        ["<f8", [True, 2], 0, 16],
        ["<f8", 2, 0, 16],
        ["<f8", [2**70, 0], 0, 0],
        ["<f8", [2**62, 2**62], 0, 2**127],
        ["<f8", [1] * 65, 0, 8],
        # extents: past the end, mismatched nbytes, negative or non-int
        ["<f8", [4], 0, 32],
        ["<f8", [2], 64, 16],
        ["<f8", [2], 0, 8],
        ["<f8", [2], -64, 16],
        ["<f8", [2], 0.0, 16],
        ["<f8", [2], 0, "16"],
        # malformed entries
        ["<f8", [2], 0],
        _F8 + [0],
        "<f8",
        {"dtype": "<f8"},
    ],
)
def test_bad_array_tables_are_codec_errors(entry):
    good = _blob(_manifest({"__array__": 0}, [_F8]), bytes(16))
    assert codec.loads(good, KIND).shape == (2,)
    with pytest.raises(CodecError):
        codec.loads(_blob(_manifest({"__array__": 0}, [entry]), bytes(16)), KIND)


@pytest.mark.parametrize(
    "manifest",
    [
        _manifest({"__array__": 7}, [_F8]),
        _manifest({"__array__": -1}, [_F8]),
        _manifest({"__array__": "0"}, [_F8]),
        _manifest({"__array__": True}, [_F8]),
        _manifest({"__array__": 0.0}, [_F8]),
        _manifest({"__tuple__": 5}, []),
        _manifest({"__tuple__": {"a": 1}}, []),
        _manifest([{"x": {"__array__": 1}}], [_F8]),
        _manifest(1, {"0": _F8}),
        _manifest(1, None),
        {"codec": 2, "kind": KIND, "arrays": []},
        {"codec": 1, "kind": KIND, "tree": 1, "arrays": []},
        {"codec": 2, "kind": "other", "tree": 1, "arrays": []},
        [2, KIND, 1, []],
        "text",
        7,
        b"\xff\xfe{}",
        b"{",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"codec":2,"kind":"test","arrays":[],"tree":' + b"9" * 5000 + b"}",
    ],
)
def test_bad_manifests_are_codec_errors(manifest):
    with pytest.raises(CodecError):
        codec.loads(_blob(manifest, bytes(16)), KIND)


@pytest.mark.parametrize("depth", [900, 990, 1_100, 100_000])
def test_deep_nesting_decodes_or_raises_codec_error(depth):
    tree = b"[" * depth + b"1" + b"]" * depth
    manifest = b'{"codec":2,"kind":"test","arrays":[],"tree":' + tree + b"}"
    try:
        assert codec.loads(_blob(manifest), KIND)
    except CodecError:
        pass
    nested = [1]
    for _ in range(depth):
        nested = [nested]
    try:
        codec.dumps(nested, KIND)
    except CodecError:
        pass


def test_bad_headers_are_codec_errors():
    blob = codec.dumps({"a": np.arange(4)}, KIND)
    for bad in (
        b"",
        blob[:15],
        b"REPROARX" + blob[8:],
        blob[:8] + struct.pack("<Q", len(blob)) + blob[16:],
        blob[:8] + struct.pack("<Q", 2**64 - 1) + blob[16:],
    ):
        with pytest.raises(CodecError):
            codec.loads(bad, KIND)
