"""ArtifactStore behaviour: layout, stats, corruption, gc, concurrency."""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ReproError
from repro.store import SCHEMA_VERSION, ArtifactStore, resolve_store

KEY_A = "ab" * 32
KEY_B = "cd" * 32


def test_put_get_roundtrip_and_stats(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("locks", KEY_A, {"x": 1, "a": np.arange(3)})
    back = store.get("locks", KEY_A)
    assert back["x"] == 1
    np.testing.assert_array_equal(back["a"], np.arange(3))
    assert store.get("locks", KEY_B) is None  # plain miss
    stats = store.stats
    assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
    assert stats.bytes_written > 0 and stats.bytes_read > 0
    assert "1 hits 1 misses" in stats.summary()


def test_hit_counts_and_touches_the_file_it_read(tmp_path, monkeypatch):
    """A hit adds the file's size to ``bytes_read`` and advances the mtime
    ``gc --keep-days`` reads, both through the descriptor it read."""
    store = ArtifactStore(tmp_path)
    path = store.put("locks", KEY_A, {"a": np.arange(100)})
    old = time.time() - 10 * 86400
    os.utime(path, (old, old))
    touched = []
    utime = os.utime
    monkeypatch.setattr(
        os, "utime", lambda target, *a, **k: (touched.append(target),
                                                utime(target, *a, **k))
    )
    assert store.get("locks", KEY_A) is not None
    monkeypatch.undo()
    assert store.stats.bytes_read == path.stat().st_size
    assert len(touched) == 1 and isinstance(touched[0], int)
    assert path.stat().st_mtime > old + 86400
    assert store.gc(keep_days=1) == (0, 0) and path.exists()


def test_layout_is_schema_and_kind_sharded(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("attacks", KEY_A, {"x": 1})
    assert path == tmp_path / f"v{SCHEMA_VERSION}" / "attacks" / KEY_A[:2] / f"{KEY_A}.npz"
    assert path.exists()


def test_malformed_key_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    for bad in ("", "../../etc/passwd", "a/b", "x.npz"):
        with pytest.raises(ValueError):
            store.path_for("locks", bad)


def test_corrupt_entry_is_a_warning_and_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("locks", KEY_A, {"x": 1})
    path.write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning, match="unreadable"):
        assert store.get("locks", KEY_A) is None
    assert store.stats.errors == 1
    # The caller recomputes and rewrites; the entry heals.
    store.put("locks", KEY_A, {"x": 2})
    assert store.get("locks", KEY_A) == {"x": 2}


def test_truncated_entry_is_a_warning_and_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("locks", KEY_A, {"a": np.arange(10_000)})
    path.write_bytes(path.read_bytes()[:100])
    with pytest.warns(RuntimeWarning):
        assert store.get("locks", KEY_A) is None


def test_schema_bump_ignores_old_entries(tmp_path):
    old = ArtifactStore(tmp_path, schema=SCHEMA_VERSION)
    old.put("locks", KEY_A, {"x": 1})
    new = ArtifactStore(tmp_path, schema=SCHEMA_VERSION + 1)
    assert new.get("locks", KEY_A) is None  # invisible, not fatal
    assert new.stats.errors == 0
    assert [e.schema for e in new.entries()] == []
    assert sorted(e.schema for e in new.entries(all_schemas=True)) == [
        SCHEMA_VERSION
    ]


def test_entries_listing(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("locks", KEY_A, {"x": 1})
    store.put("attacks", KEY_B, {"y": 2})
    entries = sorted(store.entries(), key=lambda e: e.kind)
    assert [(e.kind, e.key) for e in entries] == [
        ("attacks", KEY_B),
        ("locks", KEY_A),
    ]
    assert all(e.size > 0 for e in entries)


def test_gc_drops_stale_entries_and_tmp_strays(tmp_path):
    store = ArtifactStore(tmp_path)
    old_path = store.put("locks", KEY_A, {"x": 1})
    fresh_path = store.put("locks", KEY_B, {"x": 2})
    stray = tmp_path / f"v{SCHEMA_VERSION}" / "locks" / "zz.tmp"
    stray.write_bytes(b"partial write from a crashed runner")
    live_tmp = tmp_path / f"v{SCHEMA_VERSION}" / "locks" / "live.tmp"
    live_tmp.write_bytes(b"a concurrent writer mid-dump")
    two_days_ago = time.time() - 2 * 86400
    os.utime(old_path, (two_days_ago, two_days_ago))
    os.utime(stray, (two_days_ago, two_days_ago))

    removed, freed = store.gc(keep_days=1)
    assert removed == 2  # the stale entry + the crashed writer's stray
    assert freed > 0
    assert not old_path.exists() and not stray.exists()
    assert live_tmp.exists()  # fresh tmp == possibly in-flight, untouched
    assert fresh_path.exists()
    assert store.get("locks", KEY_B) == {"x": 2}


def test_gc_reclaims_old_schema_dirs_by_age(tmp_path):
    old = ArtifactStore(tmp_path, schema=SCHEMA_VERSION)
    old_path = old.put("locks", KEY_A, {"x": 1})
    stamp = time.time() - 3 * 86400
    os.utime(old_path, (stamp, stamp))
    new = ArtifactStore(tmp_path, schema=SCHEMA_VERSION + 1)
    removed, _ = new.gc(keep_days=1)
    assert removed == 1
    assert not old_path.exists()


def test_read_touches_mtime_for_gc(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("locks", KEY_A, {"x": 1})
    stale = time.time() - 10 * 86400
    os.utime(path, (stale, stale))
    store.get("locks", KEY_A)  # a hit refreshes the age
    removed, _ = store.gc(keep_days=1)
    assert removed == 0 and path.exists()


def test_verify_reports_and_deletes_corrupt_entries(tmp_path):
    store = ArtifactStore(tmp_path)
    good = store.put("locks", KEY_A, {"x": 1})
    bad = store.put("attacks", KEY_B, {"y": 2})
    bad.write_bytes(b"junk")
    corrupt = store.verify()
    assert [e.key for e in corrupt] == [KEY_B]
    assert bad.exists()  # report-only by default
    corrupt = store.verify(delete=True)
    assert [e.key for e in corrupt] == [KEY_B]
    assert not bad.exists() and good.exists()
    assert store.verify() == []


def test_concurrent_writers_never_produce_torn_reads(tmp_path):
    """Two runners sharing one store race on the same content key."""
    store = ArtifactStore(tmp_path)
    payloads = [
        {"tag": "w0", "a": np.full(2000, 0.5)},
        {"tag": "w1", "a": np.full(2000, 1.5)},
    ]
    store.put("attacks", KEY_A, payloads[0])
    stop = threading.Event()
    failures: list[BaseException] = []

    def writer(which: int) -> None:
        local = ArtifactStore(tmp_path)  # own process in real life
        try:
            while not stop.is_set():
                local.put("attacks", KEY_A, payloads[which])
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(50):
            back = store.get("attacks", KEY_A)
            assert back is not None, "reader observed a torn file"
            assert back["tag"] in ("w0", "w1")
            expected = 0.5 if back["tag"] == "w0" else 1.5
            assert float(back["a"][0]) == expected
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not failures
    assert store.stats.errors == 0
    # No tmp litter once the writers are done.
    assert not list(tmp_path.rglob("*.tmp"))


def test_resolve_store_argument_env_and_disable(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert resolve_store(None) is None
    assert resolve_store("") is None
    explicit = resolve_store(tmp_path / "s")
    assert isinstance(explicit, ArtifactStore)
    assert resolve_store(explicit) is explicit
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
    from_env = resolve_store(None)
    assert isinstance(from_env, ArtifactStore)
    assert from_env.root == tmp_path / "env"
    monkeypatch.setenv("REPRO_STORE", "  ")
    assert resolve_store(None) is None


@pytest.mark.parametrize("value", ["tcp://127.0.0.1:7878", "s3://b/k"])
def test_resolve_store_rejects_a_scheme(tmp_path, monkeypatch, value):
    """A ``scheme://`` store is a typed error, from a flag or the
    environment — never a local directory named after the scheme."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ReproError, match="not a directory"):
        resolve_store(value)
    monkeypatch.setenv("REPRO_STORE", value)
    with pytest.raises(ReproError, match="not a directory"):
        resolve_store(None)
    assert list(tmp_path.iterdir()) == []


def test_get_decoder_failure_is_a_warning_and_a_miss(tmp_path):
    """One corruption-tolerance path covers domain decoding too: a valid
    codec archive whose payload does not decode into its domain object
    degrades to a miss, not a crash."""
    store = ArtifactStore(tmp_path)
    store.put("locks", KEY_A, {"not": "a lock payload"})

    def decoder(payload):
        raise KeyError("circuit")

    with pytest.warns(RuntimeWarning, match="undecodable"):
        assert store.get("locks", KEY_A, decoder=decoder) is None
    assert store.stats.errors == 1 and store.stats.hits == 0
    # Without a decoder the raw payload still reads fine.
    assert store.get("locks", KEY_A) == {"not": "a lock payload"}
