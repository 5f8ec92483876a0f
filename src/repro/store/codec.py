"""Versioned flat codec — the one serializer for wire frames and store files.

Everything the artifact store persists (locked netlists, trained attack
results, :class:`~repro.linkpred.trainer.Trainer` checkpoints) goes
through :func:`dump` / :func:`load`, and every ``repro serve`` frame
through :func:`dumps` / :func:`loads`: a *payload* — an
arbitrary tree of ``dict`` / ``list`` / ``tuple`` / ``str`` / ``int`` /
``float`` / ``bool`` / ``None`` / :class:`numpy.ndarray` — becomes one
flat blob, byte for byte the same on disk and on the wire:

=========================  ==================================================
bytes                      content
=========================  ==================================================
``0 .. 8``                 magic ``b"REPROART"``
``8 .. 16``                manifest length *m*, little-endian u64
``16 .. 16+m``             UTF-8 JSON manifest: ``codec`` (version),
                           ``kind``, ``tree`` (the payload with each array
                           replaced by ``{"__array__": i}`` and each tuple
                           by ``{"__tuple__": [...]}``) and ``arrays``, one
                           ``[dtype.str, shape, offset, nbytes]`` per array
``D ..``                   each array's C-order bytes at ``D + offset``,
                           where ``D`` is ``16 + m`` rounded up to a
                           multiple of 64; offsets are multiples of 64
=========================  ==================================================

Arrays keep their dtype and bit pattern exactly (optimizer moments and
RNG streams round-trip bit-identically).  The tree is JSON written and
read by Python, so arbitrary-precision ints (PCG64 carries 128-bit state
words), ``inf``, ``nan`` and ``-0.0`` survive the round trip.

Decoding never unpickles and never trusts the blob.  It checks the magic,
the codec version and the caller's *kind*; that the manifest and every
array lie inside the blob; that each dtype is bool, integer, float or
complex (never object, void or datetime); that shapes are non-negative
ints with ``nbytes == prod(shape) * itemsize``; and that every
``__array__`` reference is an int naming an existing entry.  Any failure
raises :class:`CodecError`.  Decoded arrays are writable views into one
private copy of the blob.

:func:`dump` writes atomically — a same-directory temporary file is
renamed into place with ``os.replace`` — so a reader never observes a
torn file, and two writers racing on one path leave whichever finished
last (both wrote the same content-addressed payload anyway).  Store
files keep the historical ``.npz`` suffix, though they are no longer zip
archives.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import struct
import uuid
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults
from repro.errors import ReproError

__all__ = ["CODEC_VERSION", "CodecError", "dump", "dumps", "load", "loads"]

#: Bump when the byte layout or the manifest changes incompatibly.
CODEC_VERSION = 2

_MAGIC = b"REPROART"
_HEADER = struct.Struct("<8sQ")
_ALIGN = 64
#: dtype kinds a blob may carry: bool, signed, unsigned, float, complex.
_KINDS = frozenset("biufc")
#: The only dtype strings the encoder writes (``np.dtype(...).str``).
_DTYPE_STR = re.compile(r"[<>|][biufc][0-9]{1,2}")
_LEAVES = frozenset({str, int, float, bool, type(None)})


class CodecError(ReproError):
    """An artifact file or wire frame could not be encoded or decoded."""


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _array_ref(array: np.ndarray, arrays: list[np.ndarray]) -> dict:
    if array.dtype.kind not in _KINDS:
        raise CodecError(
            f"{array.dtype}-dtype arrays cannot be stored "
            "(only bool, integer, float and complex)"
        )
    # asarray, not ascontiguousarray: the latter turns 0-d into shape (1,).
    arrays.append(np.asarray(array, order="C"))
    return {"__array__": len(arrays) - 1}


def _flatten(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace every ndarray in the tree with a placeholder reference."""
    cls = type(node)
    if cls in _LEAVES:
        return node
    if cls is list:
        return [_flatten(item, arrays) for item in node]
    if cls is dict:
        if "__array__" in node or "__tuple__" in node:
            reserved = "__array__" if "__array__" in node else "__tuple__"
            raise CodecError(f"reserved payload key {reserved!r}")
        flat = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"payload dict keys must be str, got {type(key).__name__}"
                )
            flat[key] = _flatten(value, arrays)
        return flat
    if cls is tuple:
        return {"__tuple__": [_flatten(item, arrays) for item in node]}
    if isinstance(node, np.ndarray):
        return _array_ref(node, arrays)
    if isinstance(node, np.generic) and node.dtype.kind in _KINDS:
        # Preserve the exact dtype of numpy scalars as a 0-d array.
        return {**_array_ref(np.asarray(node), arrays), "scalar": True}
    for base in (dict, list, tuple):  # subclasses, e.g. a named tuple
        if isinstance(node, base):
            return _flatten(base(node), arrays)
    if isinstance(node, (str, int, float)):  # e.g. an IntEnum, np.str_
        return node
    raise CodecError(f"unsupported payload type {type(node).__name__}")


def _expand(node: Any, arrays: list[np.ndarray]) -> Any:
    cls = type(node)
    if cls is list:
        return [_expand(item, arrays) for item in node]
    if cls is not dict:
        return node
    if "__array__" in node:
        index = node["__array__"]
        if type(index) is not int or not 0 <= index < len(arrays):
            raise CodecError(f"array reference {index!r} names no array")
        return arrays[index][()] if node.get("scalar") else arrays[index]
    if "__tuple__" in node:
        items = node["__tuple__"]
        if type(items) is not list:
            raise CodecError("tuple placeholder does not hold a list")
        return tuple([_expand(item, arrays) for item in items])
    return {key: _expand(value, arrays) for key, value in node.items()}


def _encode(payload: Any, kind: str) -> list:
    """The blob as a list of byte chunks (header, manifest, pads, arrays)."""
    arrays: list[np.ndarray] = []
    try:
        tree = _flatten(payload, arrays)
    except RecursionError as exc:
        raise CodecError("payload nests too deeply") from exc
    table, end = [], 0
    for array in arrays:
        offset = _aligned(end)
        table.append([array.dtype.str, list(array.shape), offset, array.nbytes])
        end = offset + array.nbytes
    try:
        manifest = json.dumps(
            {"codec": CODEC_VERSION, "kind": kind, "tree": tree, "arrays": table},
            separators=(",", ":"),
        ).encode()
    except (ValueError, RecursionError) as exc:  # e.g. an int past str()'s limit
        raise CodecError(f"payload is not encodable ({exc})") from exc
    chunks = [_HEADER.pack(_MAGIC, len(manifest)), manifest]
    position = _HEADER.size + len(manifest)
    start = _aligned(position)
    for array, (_, _, offset, nbytes) in zip(arrays, table):
        if start + offset > position:
            chunks.append(bytes(start + offset - position))
        chunks.append(array)
        position = start + offset + nbytes
    return chunks


def _decode_arrays(table: Any, buffer: bytearray, start: int) -> list[np.ndarray]:
    if type(table) is not list:
        raise CodecError("array table is not a list")
    arrays = []
    for entry in table:
        if type(entry) is not list or len(entry) != 4:
            raise CodecError(f"malformed array entry {entry!r:.80}")
        dtype_str, shape, offset, nbytes = entry
        if type(dtype_str) is not str or not _DTYPE_STR.fullmatch(dtype_str):
            raise CodecError(f"dtype {dtype_str!r:.40} is not allowed")
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise CodecError(f"dtype {dtype_str!r} is not understood") from exc
        if type(shape) is not list or any(
            type(n) is not int or n < 0 for n in shape
        ):
            raise CodecError(f"bad array shape {shape!r:.80}")
        if type(offset) is not int or type(nbytes) is not int or offset < 0:
            raise CodecError(f"bad array extent {offset!r:.40}+{nbytes!r:.40}")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise CodecError(f"{nbytes} bytes do not hold {dtype_str}{shape}")
        if start + offset + nbytes > len(buffer):
            raise CodecError("array data runs past the end of the blob")
        try:
            arrays.append(np.ndarray(shape, dtype, buffer, start + offset))
        except (ValueError, OverflowError) as exc:  # e.g. >64 dims
            raise CodecError(f"bad array shape {shape!r:.80} ({exc})") from exc
    return arrays


def _decode(blob: bytes, source: str, kind: str) -> Any:
    buffer = bytearray(blob)  # one private, writable copy the arrays view
    if len(buffer) < _HEADER.size:
        raise CodecError(f"{source}: truncated header ({len(buffer)} bytes)")
    magic, length = _HEADER.unpack_from(buffer)
    if magic != _MAGIC:
        raise CodecError(
            f"{source}: not a repro.store artifact (no {_MAGIC.decode()} "
            f"header; codec {CODEC_VERSION} does not read older npz files)"
        )
    if _HEADER.size + length > len(buffer):
        raise CodecError(f"{source}: manifest runs past the end of the blob")
    try:
        manifest = json.loads(
            str(memoryview(buffer)[_HEADER.size : _HEADER.size + length], "utf-8")
        )
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, huge ints
        raise CodecError(f"{source}: unreadable manifest ({exc})") from exc
    if type(manifest) is not dict:
        raise CodecError(f"{source}: manifest is not an object")
    if manifest.get("codec") != CODEC_VERSION:
        raise CodecError(
            f"{source}: codec version {manifest.get('codec')!r:.40} "
            f"(this reader is {CODEC_VERSION})"
        )
    if manifest.get("kind") != kind:
        raise CodecError(
            f"{source}: artifact kind {manifest.get('kind')!r:.80}, "
            f"expected {kind!r}"
        )
    if "tree" not in manifest:
        raise CodecError(f"{source}: manifest has no tree")
    start = _aligned(_HEADER.size + length)
    try:
        arrays = _decode_arrays(manifest.get("arrays"), buffer, start)
        return _expand(manifest["tree"], arrays)
    except CodecError as exc:
        raise CodecError(f"{source}: {exc}") from None
    except RecursionError as exc:
        raise CodecError(f"{source}: payload nests too deeply") from exc


def dumps(payload: Any, kind: str) -> bytes:
    """Serialize *payload* to bytes — the same layout :func:`dump` writes.

    The message flavour of the codec: every ``repro serve`` frame and
    every remote-store blob, with the same bit-exact array and
    arbitrary-precision-int round-trip guarantees.
    """
    return b"".join(_encode(payload, kind))


def loads(blob: bytes, kind: str) -> Any:
    """Decode a message written by :func:`dumps` (same checks as :func:`load`)."""
    return _decode(blob, "<message>", kind)


def dump(payload: Any, path: str | os.PathLike, kind: str) -> None:
    """Serialize *payload* to *path* atomically (tmp file + rename)."""
    chunks = _encode(payload, kind)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique same-directory tmp name: concurrent writers never share a tmp
    # file, and os.replace makes publication atomic on POSIX and Windows.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    if faults.fire("store.write_enospc"):
        raise OSError(
            errno.ENOSPC, "injected fault store.write_enospc", str(tmp)
        )
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
            if faults.fire("store.write_torn"):
                # Leave a half-written tmp file behind the raise — the
                # shape a crash mid-write leaves on disk.
                handle.flush()
                handle.truncate(max(handle.tell() // 2, 1))
                raise OSError(
                    errno.EIO, "injected fault store.write_torn", str(tmp)
                )
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write never leaves a stray tmp behind
            tmp.unlink()


def load(path: str | os.PathLike, kind: str) -> Any:
    """Decode an artifact written by :func:`dump`.

    Raises:
        FileNotFoundError: *path* does not exist (a plain cache miss —
            callers distinguish it from corruption).
        CodecError: the file exists but is torn, corrupt, not a codec
            artifact, of a different *kind*, or from an incompatible
            codec version.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CodecError(f"{path}: unreadable artifact ({exc})") from exc
    payload = _decode(blob, str(path), kind)
    if faults.fire("store.read_corrupt"):
        # After the successful parse, so a genuinely missing file stays
        # a plain miss — the injected flavour is bit rot on a file that
        # exists, which callers must treat as corruption.
        raise CodecError(f"{path}: injected fault store.read_corrupt")
    return payload
