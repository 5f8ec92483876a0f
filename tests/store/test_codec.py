"""Codec tests: exact round trips, atomicity, version/kind gating."""

import json
import os

import numpy as np
import pytest

from repro.store import codec
from repro.store.codec import CodecError


def _roundtrip(tmp_path, payload, kind="test"):
    path = tmp_path / "artifact.npz"
    codec.dump(payload, path, kind=kind)
    return codec.load(path, kind=kind)


def test_scalar_tree_roundtrip(tmp_path):
    payload = {
        "s": "text",
        "i": 42,
        "f": 1.25,
        "b": False,
        "none": None,
        "nested": {"list": [1, "two", None], "deep": {"x": [[1], [2]]}},
    }
    assert _roundtrip(tmp_path, payload) == payload


def test_tuples_survive_as_tuples(tmp_path):
    back = _roundtrip(tmp_path, {"t": (1, (2.5, "x"), None), "l": [1, 2]})
    assert back["t"] == (1, (2.5, "x"), None)
    assert isinstance(back["t"], tuple)
    assert isinstance(back["t"][1], tuple)
    assert isinstance(back["l"], list)


def test_bigint_inf_nan_roundtrip(tmp_path):
    """PCG64 state words are 128-bit ints; histories carry inf/nan."""
    payload = {
        "state": 2**127 + 12345,
        "inc": 2**99 + 1,
        "best": float("inf"),
        "neg": float("-inf"),
        "nan": float("nan"),
    }
    back = _roundtrip(tmp_path, payload)
    assert back["state"] == payload["state"]
    assert back["inc"] == payload["inc"]
    assert back["best"] == float("inf") and back["neg"] == float("-inf")
    assert back["nan"] != back["nan"]


def test_float_roundtrip_is_bit_exact(tmp_path):
    value = 0.1 + 0.2  # not representable prettily
    assert _roundtrip(tmp_path, {"v": value})["v"] == value


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.linspace(-1, 1, 7, dtype=np.float64),
        np.array([], dtype=np.int32),
        np.empty((0, 5), dtype=np.float32),
        np.array(3.5, dtype=np.float64),  # 0-d
        np.arange(4, dtype=np.uint64) << np.uint64(60),
    ],
)
def test_array_roundtrip_preserves_dtype_and_bits(tmp_path, array):
    back = _roundtrip(tmp_path, {"a": array})["a"]
    assert isinstance(back, np.ndarray)
    assert back.dtype == array.dtype
    assert back.shape == array.shape
    np.testing.assert_array_equal(back, array)


def test_numpy_scalar_roundtrip(tmp_path):
    back = _roundtrip(tmp_path, {"x": np.float32(1.5), "n": np.int64(-7)})
    assert back["x"] == np.float32(1.5) and back["x"].dtype == np.float32
    assert back["n"] == -7


def test_array_list_roundtrip(tmp_path):
    state = [np.random.default_rng(0).standard_normal((4, 3)), np.zeros(2)]
    back = _roundtrip(tmp_path, {"state": state})["state"]
    assert len(back) == 2
    np.testing.assert_array_equal(back[0], state[0])


def test_dump_is_atomic_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "a.npz"
    codec.dump({"x": 1}, path, kind="test")
    assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]


def test_failed_dump_leaves_no_partial_file(tmp_path):
    path = tmp_path / "a.npz"

    class Unserializable:
        pass

    with pytest.raises(CodecError):
        codec.dump({"x": Unserializable()}, path, kind="test")
    assert list(tmp_path.iterdir()) == []


def test_non_string_keys_rejected(tmp_path):
    with pytest.raises(CodecError):
        codec.dump({1: "x"}, tmp_path / "a.npz", kind="test")


def test_load_missing_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        codec.load(tmp_path / "missing.npz", kind="test")


def test_load_garbage_raises_codec_error(tmp_path):
    path = tmp_path / "a.npz"
    path.write_bytes(b"this is not a zip archive")
    with pytest.raises(CodecError):
        codec.load(path, kind="test")


def test_load_truncated_raises_codec_error(tmp_path):
    path = tmp_path / "a.npz"
    codec.dump({"a": np.arange(1000)}, path, kind="test")
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(CodecError):
        codec.load(path, kind="test")


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "a.npz"
    codec.dump({"x": 1}, path, kind="lock")
    with pytest.raises(CodecError, match="kind"):
        codec.load(path, kind="attack")


def test_foreign_npz_rejected(tmp_path):
    """A plain npz that never went through dump() is not an artifact."""
    path = tmp_path / "a.npz"
    np.savez(path, data=np.arange(3))
    with pytest.raises(CodecError, match="not a repro.store artifact"):
        codec.load(path, kind="test")


def test_codec_version_gates_decoding(tmp_path, monkeypatch):
    path = tmp_path / "a.npz"
    codec.dump({"x": 1}, path, kind="test")
    monkeypatch.setattr(codec, "CODEC_VERSION", codec.CODEC_VERSION + 1)
    with pytest.raises(CodecError, match="codec version"):
        codec.load(path, kind="test")


def test_reserved_tuple_key_rejected(tmp_path):
    with pytest.raises(CodecError, match="reserved"):
        codec.dump({"__tuple__": [1, 2]}, tmp_path / "a.npz", kind="test")
    with pytest.raises(CodecError, match="reserved"):
        codec.dump({"__array__": 0}, tmp_path / "a.npz", kind="test")


def test_object_dtype_arrays_rejected_at_write(tmp_path):
    """savez would pickle them and allow_pickle=False load could never
    read them back — a cache entry that can never hit."""
    ragged = np.array([[1, 2], [3]], dtype=object)
    with pytest.raises(CodecError, match="object-dtype"):
        codec.dump({"a": ragged}, tmp_path / "a.npz", kind="test")
    assert list(tmp_path.iterdir()) == []  # nothing half-written


def test_wire_frames_and_store_files_never_touch_npz(tmp_path, monkeypatch):
    """numpy imports zipfile at startup, so a sys.modules check would
    prove nothing: make the npz entry points raise instead."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the codec must not go through npz")

    for name in ("load", "save", "savez", "savez_compressed"):
        monkeypatch.setattr(np, name, forbidden)
    payload = {"op": "result", "result": {"l0": np.arange(3.0)}, "s": np.int8(4)}
    back = codec.loads(codec.dumps(payload, kind="bus-message"), kind="bus-message")
    np.testing.assert_array_equal(back["result"]["l0"], payload["result"]["l0"])
    path = tmp_path / "a.npz"
    codec.dump(payload, path, kind="attacks")
    assert codec.load(path, kind="attacks")["s"] == np.int8(4)
