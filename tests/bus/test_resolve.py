"""``resolve_bus``: backend names, pass-through and unknown names."""

import pytest

from repro.bus import BusError, LocalBus, SocketBus, resolve_bus


def test_resolve_bus_names_and_errors(monkeypatch):
    monkeypatch.delenv("REPRO_BUS", raising=False)
    assert isinstance(resolve_bus(None, jobs=0), LocalBus)
    assert isinstance(resolve_bus("local", jobs=4), LocalBus)
    for unknown in ("carrier-pigeon", "spool"):
        with pytest.raises(BusError, match="choose from local, socket"):
            resolve_bus(unknown)
    monkeypatch.setenv("REPRO_BUS", "socket")
    bus = resolve_bus(None)
    try:
        assert isinstance(bus, SocketBus)
    finally:
        bus.close()
    passthrough = LocalBus()
    assert resolve_bus(passthrough) is passthrough
