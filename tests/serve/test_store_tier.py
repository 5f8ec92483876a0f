"""The store tier of ``repro serve``: a hit's ``result`` frame is built
from the stored file's bytes (:func:`repro.wire.read_frame`).

It must be byte for byte the frame a decode and re-encode would send,
keep the store's corruption policy and counters, and copy the artifact
once: the frame is the only large buffer either side allocates.  After
a key's first store-tier read the server memoizes the file's frame
header, and a later read whose header and manifest bytes still match
reads only the array bytes: every case here runs on that path too.
"""

import functools
import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro import faults
from repro.attacks.baseline import BaselineReport
from repro.benchgen import load_benchmark
from repro.client import ServeClient
from repro.core import MuxLinkConfig, run_muxlink
from repro.experiments import SMOKE_SCALE, make_cell
from repro.jobs import Job
from repro.faults import FaultPlan, FaultSite, RetryPolicy
from repro.linkpred import TrainConfig
from repro.locking import lock_dmux
from repro.serve import AttackServer, ServeStats
from repro.serve import server as server_module
from repro.serve.server import _header_cost, _result
from repro.store import (
    StoreStats,
    codec,
    encode_attack_artifact,
    encode_baseline_artifact,
)
from repro.wire import decode_frame, encode_frame, encode_job, read_frame

_FAST = RetryPolicy(base_delay=0.01, max_delay=0.05, connect_timeout=5.0,
                    read_timeout=20.0)
KEY = "cd" * 32


def _read_frame(path, kind, wrap) -> bytearray:
    """The ``result`` frame :func:`read_frame` builds over a freshly
    opened handle on *path*."""
    with codec.opened(path) as handle:
        return read_frame(handle, path, kind, wrap)[0]


@pytest.fixture(scope="module")
def attack():
    """``(circuit, config, attack artifact payload)`` of a small real run."""
    locked = lock_dmux(load_benchmark("c1355", scale=0.1), key_size=6, seed=1)
    config = MuxLinkConfig(h=3, train=TrainConfig(epochs=2, seed=0), seed=0)
    result = run_muxlink(locked.circuit, config)
    return locked.circuit, config, encode_attack_artifact(result)


def _baseline() -> dict:
    return encode_baseline_artifact(
        BaselineReport(
            attack="saam",
            predicted_key="01x1",
            scores={0: 0.25, 1: -0.0, 3: float("inf")},
            n_blind=1,
            runtime_seconds=0.5,
        )
    )


def _server(tmp_path, **options) -> AttackServer:
    return AttackServer(
        "127.0.0.1:0", tmp_path / "store", log=lambda *a: None, **options
    )


def _memoize(srv: AttackServer, kind: str, key: str) -> None:
    """Read *key* once from the store tier, evict it from the memory tier
    and zero every counter: its next lookup is a memoized store read."""
    assert srv._lookup(kind, key) is not None
    assert (kind, key) in srv._headers
    srv._cache.clear()
    srv.stats, srv.store.stats = ServeStats(), StoreStats()


def _no_full_read(*args, **kwargs):
    raise AssertionError("a memoized store-tier hit read the whole file")


@pytest.mark.parametrize("kind", ["attacks", "baselines"])
def test_store_tier_frame_is_the_encoded_result(tmp_path, attack, kind):
    payload = attack[2] if kind == "attacks" else _baseline()
    srv = _server(tmp_path)
    try:
        srv.store.put(kind, KEY, payload)
        expected = encode_frame(_result(KEY, kind, srv.store.get(kind, KEY)))
        frame = srv._lookup(kind, KEY)
        assert bytes(frame) == expected
        assert srv.stats.store_hits == 1
        assert srv._lookup(kind, KEY) is frame  # now the memory tier's
    finally:
        srv.close()


def _trailing_bytes(blob: bytearray, data: int) -> None:
    blob += b"junk"


def _padding_byte(blob: bytearray, data: int) -> None:
    blob[data + 24] = 7  # between array 0's 24 bytes and array 1 at 64


def _scalar_flag(blob: bytearray, data: int) -> None:
    # Same length, still valid: ``"scalar":1`` decodes as ``true`` does.
    blob[:data] = blob[:data].replace(b'"scalar":true', b'"scalar":1   ')


@pytest.mark.parametrize(
    "edit", [_trailing_bytes, _padding_byte, _scalar_flag]
)
def test_hand_made_blob_is_served_as_its_payload(tmp_path, edit):
    """A valid blob that ``dump`` would not have written byte for byte
    keeps its layout in the frame and decodes to the payload it holds."""
    path = tmp_path / "a.npz"
    payload = {"a": np.arange(3.0), "b": np.int8(5), "c": np.arange(2)}
    codec.dump(payload, path, kind="attacks")
    blob = bytearray(path.read_bytes())
    edit(blob, -(-(16 + int.from_bytes(blob[8:16], "little")) // 64) * 64)
    path.write_bytes(bytes(blob))
    wrap = functools.partial(_result, KEY, "attacks")
    served = decode_frame(_read_frame(path, "attacks", wrap))
    # Re-encoding is canonical: equal bytes mean equal payloads.
    assert encode_frame(served) == encode_frame(
        wrap(codec.load(path, "attacks"))
    )


def _tear(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garble(path):
    path.write_bytes(os.urandom(path.stat().st_size))


def _rekind(path):
    codec.dump({"x": np.arange(3)}, path, kind="locks")


@pytest.mark.parametrize(
    ("damage", "memoized"),
    [
        pytest.param(
            damage, memoized, id=damage.__name__ + memoized * "-memoized"
        )
        for damage in (_tear, _garble, _rekind)
        for memoized in (False, True)
    ],
)
def test_corrupt_store_file_is_a_warned_miss_and_recomputes(
    tmp_path, damage, memoized
):
    srv = _server(tmp_path)
    try:
        # Large enough that a torn file still holds its whole manifest.
        srv.store.put("attacks", KEY, {"x": np.arange(1000.0)})
        if memoized:
            _memoize(srv, "attacks", KEY)
        damage(srv.store.path_for("attacks", KEY))
        with pytest.warns(RuntimeWarning, match="discarding unreadable"):
            assert srv._lookup("attacks", KEY) is None
        assert (srv.store.stats.errors, srv.stats.store_hits) == (1, 0)
        assert not srv._cache

        cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
        job = Job(
            kind="attack", store_key=KEY, circuit={"fake": 1}, config=cell.config
        )
        sent = []
        sink = type("Sink", (), {"send": lambda self, m: sent.append(m)})()
        with pytest.warns(RuntimeWarning, match="discarding unreadable"):
            srv.submit(sink, KEY, encode_job(job))
        assert sent[-1]["status"] == "queued"
        assert srv.stats.scheduled == 1
    finally:
        srv.close()


def test_injected_corrupt_read_fires_on_the_store_tier(tmp_path):
    _injected_corrupt_read(tmp_path, memoized=False)


def test_injected_corrupt_read_fires_on_a_memoized_read(tmp_path):
    _injected_corrupt_read(tmp_path, memoized=True)


def _injected_corrupt_read(tmp_path, memoized: bool) -> None:
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(4.0)})
        if memoized:
            _memoize(srv, "attacks", KEY)
        faults.activate(
            FaultPlan("test", sites=(FaultSite("store.read_corrupt", times=1),))
        )
        try:
            with pytest.warns(RuntimeWarning, match="store.read_corrupt"):
                assert srv._lookup("attacks", KEY) is None
        finally:
            faults.deactivate()
        assert (srv.store.stats.errors, srv.stats.store_hits) == (1, 0)
        assert srv._lookup("attacks", KEY) is not None  # healed: one-shot
    finally:
        srv.close()


@pytest.mark.parametrize("kind", ["attacks", "baselines"])
def test_memoized_frame_is_load_frames(tmp_path, attack, kind, monkeypatch):
    payload = attack[2] if kind == "attacks" else _baseline()
    srv = _server(tmp_path)
    try:
        srv.store.put(kind, KEY, payload)
        _memoize(srv, kind, KEY)
        monkeypatch.setattr(server_module, "read_frame", _no_full_read)
        frame = srv._lookup(kind, KEY)
        path = srv.store.path_for(kind, KEY)
        wrap = functools.partial(_result, KEY, kind)
        assert bytes(frame) == bytes(_read_frame(path, kind, wrap))
        assert (srv.stats.store_hits, srv.store.stats.hits) == (1, 1)
    finally:
        srv.close()


@pytest.mark.parametrize(
    "fresh",
    [{"x": np.arange(1000.0) + 1}, {"x": np.arange(999.0)}],
    ids=["same-manifest", "other-manifest"],
)
def test_store_put_under_a_memoized_key_is_served_fresh(tmp_path, fresh):
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(1000.0)})
        _memoize(srv, "attacks", KEY)
        srv.store.put("attacks", KEY, fresh)
        frame = srv._lookup("attacks", KEY)
        served = decode_frame(frame)["result"]
        assert np.array_equal(served["x"], fresh["x"])
        path = srv.store.path_for("attacks", KEY)
        wrap = functools.partial(_result, KEY, "attacks")
        assert bytes(frame) == bytes(_read_frame(path, "attacks", wrap))
    finally:
        srv.close()


def test_memoized_file_that_grew_is_read_whole(tmp_path):
    """Same header and manifest bytes, longer file: the frame carries the
    trailing bytes as :func:`read_frame`'s does."""
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(4.0)})
        _memoize(srv, "attacks", KEY)
        path = srv.store.path_for("attacks", KEY)
        path.write_bytes(path.read_bytes() + b"junk")
        frame = srv._lookup("attacks", KEY)
        wrap = functools.partial(_result, KEY, "attacks")
        assert bytes(frame) == bytes(_read_frame(path, "attacks", wrap))
    finally:
        srv.close()


def test_deleted_memoized_file_is_a_cold_miss_counted_nowhere(tmp_path):
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(4.0)})
        _memoize(srv, "attacks", KEY)
        srv.store.path_for("attacks", KEY).unlink()
        assert srv._lookup("attacks", KEY) is None
        assert srv.store.stats == StoreStats()
        assert srv.stats == ServeStats()
    finally:
        srv.close()


def test_header_memo_stays_under_its_bound(tmp_path, monkeypatch):
    srv = _server(tmp_path)
    try:
        keys = [f"{i:02d}" * 32 for i in range(5)]
        for key in keys:
            srv.store.put("attacks", key, {"x": np.arange(4.0)})
        srv._lookup("attacks", keys[0])
        cost = _header_cost(srv._headers[("attacks", keys[0])][1])
        srv._headers.clear()
        srv._header_bytes = 0
        monkeypatch.setattr(server_module, "HEADER_MEMO_BYTES", 2 * cost + 1)
        for key in keys:
            srv._cache.clear()
            assert srv._lookup("attacks", key) is not None
            assert srv._header_bytes <= server_module.HEADER_MEMO_BYTES
        # Least recently read first out: the last two keys stay.
        assert list(srv._headers) == [("attacks", k) for k in keys[-2:]]
        assert srv._header_bytes == 2 * cost
        # A header larger than the whole memo is never kept.
        monkeypatch.setattr(server_module, "HEADER_MEMO_BYTES", cost - 1)
        srv._headers.clear()
        srv._header_bytes = 0
        srv._cache.clear()
        assert srv._lookup("attacks", keys[0]) is not None
        assert (dict(srv._headers), srv._header_bytes) == ({}, 0)
    finally:
        srv.close()


def test_store_tier_hit_counts_bytes_and_touches_the_file(tmp_path):
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(4.0)})
        path = srv.store.path_for("attacks", KEY)
        os.utime(path, (1_000_000, 1_000_000))
        assert srv._lookup("attacks", KEY) is not None
        stats = srv.store.stats
        assert (stats.hits, stats.bytes_read) == (1, path.stat().st_size)
        assert path.stat().st_mtime > 1_000_000  # the LRU signal for gc
    finally:
        srv.close()


def _peak(fn) -> tuple[object, int]:
    """``fn()`` and the traced allocation peak above the starting level."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_store_tier_lookup_allocates_one_frame(tmp_path, attack):
    _lookup_allocates_one_frame(tmp_path, attack, memoized=None)


def test_memoized_store_tier_lookup_allocates_one_frame(
    tmp_path, attack, monkeypatch
):
    _lookup_allocates_one_frame(tmp_path, attack, memoized=monkeypatch)


def _lookup_allocates_one_frame(tmp_path, attack, memoized) -> None:
    """*memoized*: ``None`` for a cold store read, else the monkeypatch
    that makes a whole-file read fail after the warm-up."""
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, attack[2])
        srv._lookup("attacks", KEY)  # warm-up: imports, caches, the memo
        srv._cache.clear()
        if memoized is None:
            srv._headers.clear()
            srv._header_bytes = 0
        else:
            memoized.setattr(server_module, "read_frame", _no_full_read)
        frame, peak = _peak(lambda: srv._lookup("attacks", KEY))
        assert len(frame) > 100_000
        assert peak <= len(frame) + 64 * 1024
    finally:
        srv.close()


def test_warm_attack_allocates_little_beyond_its_frame(tmp_path, attack):
    circuit, config, payload = attack
    srv = _server(tmp_path, poll=0.02)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(srv.address, retry=_FAST)
    try:
        key = ServeClient.predict_store_key(circuit, config)
        srv.store.put("attacks", key, payload)
        client.attack(circuit, config)  # store tier, now a memory hit
        frame = srv._cache[("attacks", key)]
        result, peak = _peak(lambda: client.attack(circuit, config))
        assert result.predicted_key == payload["predicted_key"]
        assert srv.stats.memory_hits == 1
        assert peak <= 1.25 * len(frame)
    finally:
        client.shutdown()
        thread.join(timeout=10)
        srv.close()
