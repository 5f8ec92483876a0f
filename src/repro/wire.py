"""The TCP wire shared by ``repro serve``, its workers and its clients.

Every frame is a 4-byte big-endian length followed by a
:func:`repro.store.codec.dumps` blob of kind ``bus-message`` — a dict
with an ``op`` field (the op table lives in :mod:`repro.serve.server`).
The blob is the flat codec layout the store writes to disk, so arrays
(a result frame's likelihoods and DGCNN weights) decode as views into
one buffer.  A length above :data:`MAX_FRAME` or a blob the codec
rejects (:class:`~repro.store.codec.CodecError`) drops that peer, never
the server.  This module holds the pieces both ends need:

* the framing (:func:`encode_frame` / :func:`decode_frame`,
  :func:`send_message` / :func:`recv_message`, and :func:`load_frame`
  for a stored artifact's ``result`` frame) and :func:`parse_address`;
  each frame is one buffer on both sides, and a received one is the
  buffer its decoded arrays view;
* the server-side selector plumbing (:class:`_Server`,
  :class:`_Connection`) the :class:`~repro.serve.AttackServer` loop runs
  on;
* :class:`Channel`, the client side: one lazily (re)connected
  request/reply link, retried on the shared
  :class:`~repro.faults.RetryPolicy` — what
  :class:`~repro.client.ServeClient` and
  :class:`~repro.store.remote.RemoteStore` talk through.
"""

from __future__ import annotations

import selectors
import socket
import threading

from repro import faults
from repro.bus.protocol import BUS_MESSAGE_KIND, BusError
from repro.errors import ServeError
from repro.faults.retry import RetryPolicy
from repro.store import codec
from repro.store.codec import CodecError

__all__ = [
    "MAX_FRAME",
    "Channel",
    "decode_frame",
    "encode_frame",
    "load_frame",
    "parse_address",
    "recv_message",
    "send_message",
]

_LEN_BYTES = 4
#: Frames above this are refused outright — a desynced or hostile peer
#: must not make the server allocate gigabytes.
MAX_FRAME = 512 * 1024 * 1024
#: The most one receive grows a frame's buffer ahead of the bytes that
#: have arrived.
_READ = 1 << 20
#: Each server-side connection's reusable read buffer.
_CHUNK = 1 << 16


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (bare ``":port"`` = localhost)."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit()):
        raise BusError(f"malformed address {text!r}; expected host:port")
    if int(port) > 65535:
        raise BusError(f"port {port} of address {text!r} is outside 0-65535")
    return host or "127.0.0.1", int(port)


def _length_prefix(length: int) -> bytes:
    return length.to_bytes(_LEN_BYTES, "big")


def encode_frame(payload: dict) -> bytes:
    """One framed codec message, length prefix and blob in one buffer."""
    return codec.dumps(payload, kind=BUS_MESSAGE_KIND, prefix=_length_prefix)


def load_frame(path, kind: str, wrap) -> bytearray:
    """``encode_frame(wrap(codec.load(path, kind)))``, built from the
    stored file's bytes (:func:`repro.store.codec.load_wrapped`): the
    artifact is read once and never decoded into a new encoding."""
    return codec.load_wrapped(
        path, kind, wrap, BUS_MESSAGE_KIND, _length_prefix
    )


def decode_frame(frame: bytes | bytearray) -> dict:
    """The message an :func:`encode_frame` frame carries."""
    return codec.loads(memoryview(frame)[_LEN_BYTES:], kind=BUS_MESSAGE_KIND)


def send_message(sock: socket.socket, payload: dict) -> None:
    """Write one framed codec message (blocking until fully sent)."""
    sock.sendall(encode_frame(payload))


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message from a blocking socket; ``None`` on EOF.

    The blob is received into one ``bytearray`` that the codec adopts,
    so the decoded arrays are views into it and nothing is copied again.
    """
    header = _recv_exact(sock, _LEN_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise BusError(f"oversized bus frame ({length} bytes)")
    blob = _recv_exact(sock, length)
    if blob is None:
        return None
    return codec.loads(blob, kind=BUS_MESSAGE_KIND)


def _recv_exact(sock: socket.socket, n: int) -> bytearray | None:
    """*n* bytes in one ``bytearray``; ``None`` on EOF before them.

    The buffer grows one bounded read (:data:`_READ`) at a time as bytes
    arrive, so a length prefix alone never allocates more than that.
    """
    buffer = bytearray(min(n, _READ))
    got = 0
    while True:
        with memoryview(buffer) as view:
            while got < len(buffer):
                count = sock.recv_into(view[got:])
                if not count:
                    return None
                got += count
        if got == n:
            return buffer
        buffer += bytes(min(n - got, _READ))


class _Connection:
    """One peer link on the server side: recv buffer + frame splitting.

    Each readiness event reads into the connection's reusable read
    buffer; the bytes append to one ``bytearray`` and complete frames
    are read from an offset, so a frame costs time linear in its size
    however many reads it arrives in.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self._chunk = memoryview(bytearray(_CHUNK))  # recv_into, reused

    def feed(self) -> list[dict] | None:
        """Drain readable bytes into complete frames; ``None`` = gone."""
        try:
            count = self.sock.recv_into(self._chunk)
        except BlockingIOError:  # pragma: no cover - spurious readiness
            return []
        except OSError:
            return None
        if not count:
            return None
        buffer = self.buffer
        buffer += self._chunk[:count]
        messages = []
        start = 0
        while len(buffer) - start >= _LEN_BYTES:
            length = int.from_bytes(buffer[start : start + _LEN_BYTES], "big")
            if length > MAX_FRAME:
                return None  # desynced peer; drop the connection
            end = start + _LEN_BYTES + length
            if len(buffer) < end:
                break
            try:  # the slice is a private bytearray, adopted by the codec
                messages.append(
                    codec.loads(buffer[start + _LEN_BYTES : end],
                                kind=BUS_MESSAGE_KIND)
                )
            except CodecError:
                return None
            start = end
        del buffer[:start]  # at most one partial frame stays behind
        return messages

    def send(self, payload: dict) -> bool:
        return self.send_frame(encode_frame(payload))

    def send_frame(self, frame: bytes) -> bool:
        """Write an already encoded frame (see :func:`encode_frame`)."""
        try:
            self.sock.sendall(frame)
            return True
        except OSError:
            return False


class _Server:
    """Listening socket + selector over :class:`_Connection` peers.

    *read_timeout* bounds every blocking operation on an accepted
    connection (``sendall`` of a job frame to a wedged peer, a reply
    read) — before it, one hung worker socket could block the
    server forever.  A timeout surfaces as ``OSError`` on the
    operation, which the callers already treat as a dead connection.
    """

    def __init__(
        self, address: str, read_timeout: float | None = None
    ) -> None:
        host, port = parse_address(address)
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self.read_timeout = read_timeout
        self.selector = selectors.DefaultSelector()
        self.selector.register(self._listener, selectors.EVENT_READ)
        self.connections: dict[socket.socket, _Connection] = {}
        bound = self._listener.getsockname()
        self.address = f"{bound[0]}:{bound[1]}"

    def poll(self, timeout: float) -> list[tuple[_Connection, list[dict] | None]]:
        """One select cycle → ``(connection, messages-or-EOF)`` events."""
        events = []
        for key, _ in self.selector.select(timeout=timeout):
            sock = key.fileobj
            if sock is self._listener:
                try:
                    conn_sock, _ = self._listener.accept()
                except OSError:  # pragma: no cover - racing close
                    continue
                if faults.fire("serve.accept_drop"):
                    # The peer sees an immediate EOF and must reconnect
                    # on its retry schedule.
                    try:
                        conn_sock.close()
                    except OSError:  # pragma: no cover
                        pass
                    continue
                # settimeout(None) == setblocking(True); a finite value
                # keeps blocking semantics but bounds each operation.
                conn_sock.settimeout(self.read_timeout)
                connection = _Connection(conn_sock)
                self.connections[conn_sock] = connection
                self.selector.register(conn_sock, selectors.EVENT_READ)
            else:
                connection = self.connections[sock]
                events.append((connection, connection.feed()))
        return events

    def drop(self, connection: _Connection) -> None:
        try:
            self.selector.unregister(connection.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        self.connections.pop(connection.sock, None)
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        for connection in list(self.connections.values()):
            self.drop(connection)
        try:
            self.selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        self.selector.close()

    def close_forked(self) -> None:
        """Close a forked child's copies of the listener, peer and selector
        fds, leaving the parent's loop untouched.

        Unlike :meth:`close`, this never calls ``selector.unregister``.
        On Linux the selector is an epoll set, and a forked child shares
        it with its parent: an ``EPOLL_CTL_DEL`` from the child removes
        the parent's registration too, and the parent silently stops
        accepting.  Closing a descriptor only drops this process's
        reference; the parent's copy and its epoll entry stay live.
        """
        for sock in [*self.connections, self._listener]:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self.connections.clear()
        self.selector.close()  # closes the fd and forgets its map only


class Channel:
    """One persistent request/reply connection to a ``repro serve`` endpoint.

    Thread-safe (one exchange at a time).  A socket error or EOF drops
    the connection, and :meth:`exchange` reconnects and retries on the
    *retry* backoff — which also absorbs the server's injected
    ``serve.accept_drop``.  A reply frame that is not a mapping drops it
    too and raises :class:`~repro.errors.ServeError` naming the op.
    """

    def __init__(
        self,
        address: str,
        retry: RetryPolicy | None = None,
        name: str = "serve",
    ) -> None:
        self.host, self.port = parse_address(address)
        self.address = f"{self.host}:{self.port}"
        self.retry = retry if retry is not None else RetryPolicy()
        self.name = name
        self._sock: socket.socket | None = None
        self._lock = threading.RLock()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def exchange(
        self,
        payload: dict,
        expect: tuple[str, ...],
        expect_key: str | None = None,
        fault_site: str | None = None,
    ) -> dict:
        """Send one frame, read frames until an expected op arrives.

        *expect_key* additionally matches the reply's ``key`` field —
        a retried ``wait`` can leave duplicate/stale result frames in
        the stream, and they must never satisfy a later exchange.
        *fault_site*, when armed, injects a read timeout between the
        send and the read.
        """

        def _attempt() -> dict:
            with self._lock:
                try:
                    if self._sock is None:
                        sock = socket.create_connection(
                            (self.host, self.port),
                            timeout=self.retry.connect_timeout,
                        )
                        sock.settimeout(self.retry.read_timeout)
                        self._sock = sock
                    send_message(self._sock, payload)
                    if fault_site is not None and faults.fire(fault_site):
                        raise socket.timeout(f"injected fault {fault_site}")
                    while True:
                        reply = recv_message(self._sock)
                        if reply is None:
                            raise OSError(f"{self.name} connection closed")
                        if not isinstance(reply, dict):
                            self._drop()  # the stream cannot be trusted
                            raise ServeError(
                                f"{self.name} {payload.get('op')}: the reply "
                                f"frame is a {type(reply).__name__}, not a "
                                "mapping"
                            )
                        if reply.get("op") in expect and (
                            expect_key is None
                            or str(reply.get("key", "")) == expect_key
                        ):
                            return reply
                        # e.g. an unsolicited result frame for an
                        # earlier fire-and-forget submit: ignore.
                except OSError:
                    self._drop()
                    raise

        return self.retry.call(
            _attempt,
            retry_on=(OSError,),
            describe=f"{self.name} {payload.get('op')}",
        )
