"""Machine-readable ``cache stats`` and the wire address parser."""

import json

import pytest

from repro.bus import BusError
from repro.cli import main
from repro.store import ArtifactStore
from repro.wire import parse_address


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
