"""Lease-aware ``repro cache gc`` and machine-readable ``cache stats``."""

import json
import os

import pytest

from repro.bus import BusError, SpoolDir, encode_job
from repro.cli import main
from repro.experiments import SMOKE_SCALE, make_cell
from repro.experiments.runner import AttackJob
from repro.store import ArtifactStore
from repro.wire import parse_address


def _age(path, days: float) -> None:
    past = os.stat(path).st_mtime - days * 86400.0
    os.utime(path, (past, past))


def _spool_with_inflight(tmp_path, keys) -> SpoolDir:
    spool = SpoolDir(tmp_path / "spool")
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    for key in keys:
        job = AttackJob(store_key=key, circuit={"x": 1}, config=cell.config)
        spool.enqueue(key, encode_job(job))
    return spool


def test_gc_protects_inflight_spool_keys(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    referenced = store.put("attacks", "a" * 16, {"payload": 1})
    collectable = store.put("attacks", "b" * 16, {"payload": 2})
    _age(referenced, 30)
    _age(collectable, 30)
    spool = _spool_with_inflight(tmp_path, ["a" * 16])
    spool.lease()  # leased jobs are protected too, not just pending

    removed, _ = store.gc(keep_days=7, protect=spool.referenced_keys())
    assert removed == 1
    assert referenced.exists(), "gc collected an in-flight job's artifact"
    assert not collectable.exists()


def test_cache_gc_cli_honors_bus_dir(tmp_path, capsys):
    store = ArtifactStore(tmp_path / "store")
    kept = store.put("attacks", "c" * 16, {"payload": 1})
    dropped = store.put("attacks", "d" * 16, {"payload": 2})
    _age(kept, 30)
    _age(dropped, 30)
    spool = _spool_with_inflight(tmp_path, ["c" * 16])

    rc = main(
        [
            "cache",
            "--store",
            str(store.root),
            "gc",
            "--keep-days",
            "7",
            "--bus-dir",
            str(spool.root),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert kept.exists() and not dropped.exists()
    assert "protected 1 in-flight key(s)" in out


def test_cache_gc_cli_reads_bus_dir_from_env(tmp_path, capsys, monkeypatch):
    store = ArtifactStore(tmp_path / "store")
    kept = store.put("attacks", "e" * 16, {"payload": 1})
    _age(kept, 30)
    spool = _spool_with_inflight(tmp_path, ["e" * 16])
    monkeypatch.setenv("REPRO_BUS_DIR", str(spool.root))

    rc = main(["cache", "--store", str(store.root), "gc", "--keep-days", "7"])
    assert rc == 0
    assert kept.exists()
    assert "protected 1" in capsys.readouterr().out


def test_cache_stats_json(tmp_path, capsys):
    store = ArtifactStore(tmp_path / "store")
    store.put("attacks", "a" * 16, {"payload": 1})
    store.put("locks", "b" * 16, {"payload": 2})

    rc = main(["cache", "--store", str(store.root), "stats", "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["root"] == str(store.root)
    assert stats["schema"] == store.schema
    assert stats["kinds"]["attacks"]["count"] == 1
    assert stats["kinds"]["locks"]["count"] == 1
    assert stats["total"]["count"] == 2
    assert stats["total"]["bytes"] > 0


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    assert parse_address(":8080") == ("127.0.0.1", 8080)
    assert parse_address("8080") == ("127.0.0.1", 8080)
    assert parse_address("example.com:1") == ("example.com", 1)
    with pytest.raises(BusError, match="malformed"):
        parse_address("no-port-here")
