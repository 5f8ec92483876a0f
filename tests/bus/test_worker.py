"""A ``--serve-addr`` worker survives bad frames from its server.

Each test points :func:`run_worker` at a fake server that answers every
connection with one frame the worker cannot act on.  The worker must
treat it as a lost connection — hang up, log one line, reconnect on the
retry backoff — and return at its idle timeout instead of raising.
"""

import socket
import threading
import time

import pytest

from repro.serve import run_worker
from repro.wire import encode_frame


class _FakeServer:
    """Accepts connections and sends each one *reply* bytes."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        peers = []
        while not self._stop.is_set():
            try:
                peer, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            peer.sendall(self.reply)
            peers.append(peer)  # held open: only the worker hangs up
        for peer in peers:
            peer.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()


@pytest.mark.parametrize(
    "reply, problem",
    [
        (len(b"x" * 16).to_bytes(4, "big") + b"\x8f" * 16, "not a repro"),
        (encode_frame({"op": "job", "attempt": 0, "job": {}}), "string key"),
        ((2**31).to_bytes(4, "big"), "oversized"),
    ],
    ids=["non-codec-bytes", "job-without-key", "oversized-length"],
)
def test_bad_frame_drops_the_connection_not_the_worker(reply, problem):
    server = _FakeServer(reply)
    lines = []
    try:
        start = time.monotonic()
        stats = run_worker(
            serve_addr=server.address,
            poll=0.05,
            idle_timeout=1,
            log=lines.append,
        )
        elapsed = time.monotonic() - start
    finally:
        server.close()
    assert stats.executed == 0 and stats.failed == 0
    assert 1 <= elapsed < 10
    assert server.connections >= 2  # it hung up and came back
    bad = [line for line in lines if "bad frame" in line]
    assert 1 <= len(bad) <= server.connections
    assert all(problem in line for line in bad)
