"""The store tier of ``repro serve``: a hit's ``result`` frame is built
from the stored file's bytes (:func:`repro.wire.load_frame`).

It must be byte for byte the frame a decode and re-encode would send,
keep the store's corruption policy and counters, and copy the artifact
once: the frame is the only large buffer either side allocates.
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
from repro.bus.protocol import encode_job
from repro.client import ServeClient
from repro.core import MuxLinkConfig, run_muxlink
from repro.experiments import SMOKE_SCALE, make_cell
from repro.experiments.runner import AttackJob
from repro.faults import FaultPlan, FaultSite, RetryPolicy
from repro.linkpred import TrainConfig
from repro.locking import lock_dmux
from repro.serve import AttackServer
from repro.serve.server import _result
from repro.store import (
    codec,
    encode_attack_artifact,
    encode_baseline_artifact,
)
from repro.wire import decode_frame, encode_frame, load_frame

_FAST = RetryPolicy(base_delay=0.01, max_delay=0.05, connect_timeout=5.0,
                    read_timeout=20.0)
KEY = "cd" * 32


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
    served = decode_frame(load_frame(path, "attacks", wrap))
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


@pytest.mark.parametrize("damage", [_tear, _garble, _rekind])
def test_corrupt_store_file_is_a_warned_miss_and_recomputes(tmp_path, damage):
    srv = _server(tmp_path)
    try:
        # Large enough that a torn file still holds its whole manifest.
        srv.store.put("attacks", KEY, {"x": np.arange(1000.0)})
        damage(srv.store.path_for("attacks", KEY))
        with pytest.warns(RuntimeWarning, match="discarding unreadable"):
            assert srv._lookup("attacks", KEY) is None
        assert (srv.store.stats.errors, srv.stats.store_hits) == (1, 0)
        assert not srv._cache

        cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
        job = AttackJob(store_key=KEY, circuit={"fake": 1}, config=cell.config)
        sent = []
        sink = type("Sink", (), {"send": lambda self, m: sent.append(m)})()
        with pytest.warns(RuntimeWarning, match="discarding unreadable"):
            srv.submit(sink, KEY, encode_job(job))
        assert sent[-1]["status"] == "queued"
        assert srv.stats.scheduled == 1
    finally:
        srv.close()


def test_injected_corrupt_read_fires_on_the_store_tier(tmp_path):
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, {"x": np.arange(4.0)})
        faults.activate(
            FaultPlan("test", sites=(FaultSite("store.read_corrupt", times=1),))
        )
        try:
            with pytest.warns(RuntimeWarning, match="store.read_corrupt"):
                assert srv._lookup("attacks", KEY) is None
        finally:
            faults.deactivate()
        assert srv.store.stats.errors == 1
        assert srv._lookup("attacks", KEY) is not None  # healed: one-shot
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
    srv = _server(tmp_path)
    try:
        srv.store.put("attacks", KEY, attack[2])
        srv._lookup("attacks", KEY)  # warm-up: imports and caches
        srv._cache.clear()
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
