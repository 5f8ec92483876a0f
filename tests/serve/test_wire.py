"""The wire's receive paths: the server's frame splitting
(:class:`repro.wire._Connection.feed`) and the blocking
:func:`repro.wire.recv_message` its clients and workers read with."""

import socket
import threading
import tracemalloc

import numpy as np
import pytest

from repro import wire
from repro.bus.protocol import BUS_MESSAGE_KIND, BusError
from repro.store import codec
from repro.wire import (
    MAX_FRAME,
    _Connection,
    decode_frame,
    encode_frame,
    recv_message,
)

_MESSAGE = {
    "op": "store-put", "key": "k" * 16, "blob": np.arange(9, dtype=np.uint8)
}


@pytest.fixture
def pair():
    """``(_Connection, peer socket)`` over a local socket pair."""
    ours, theirs = socket.socketpair()
    ours.settimeout(5)
    yield _Connection(ours), theirs
    ours.close()
    theirs.close()


def _feed_until(connection: _Connection, count: int) -> list[dict]:
    """Feed until *count* messages arrived (a recv may return early)."""
    messages = []
    while len(messages) < count:
        got = connection.feed()
        assert got is not None, "connection dropped"
        messages += got
    return messages


def _same(message: dict) -> bool:
    return (
        message["op"] == _MESSAGE["op"]
        and message["key"] == _MESSAGE["key"]
        and np.array_equal(message["blob"], _MESSAGE["blob"])
    )


def test_frame_split_at_every_byte_boundary(pair):
    connection, peer = pair
    frame = encode_frame(_MESSAGE)
    for cut in range(1, len(frame)):
        peer.sendall(frame[:cut])
        assert connection.feed() == []
        peer.sendall(frame[cut:])
        (message,) = _feed_until(connection, 1)
        assert _same(message)
        assert not connection.buffer


def test_several_frames_in_one_recv(pair):
    connection, peer = pair
    frame = encode_frame(_MESSAGE)
    tail = encode_frame({"op": "ping"})
    peer.sendall(frame * 3 + tail[:5])
    messages = _feed_until(connection, 3)
    assert len(messages) == 3 and all(_same(m) for m in messages)
    assert bytes(connection.buffer) == tail[:5]  # the partial frame waits
    peer.sendall(tail[5:])
    assert _feed_until(connection, 1) == [{"op": "ping"}]


def test_oversized_length_drops_the_connection(pair):
    connection, peer = pair
    oversized = (MAX_FRAME + 1).to_bytes(4, "big")
    peer.sendall(encode_frame({"op": "ping"}) + oversized)
    assert connection.feed() is None


def test_decode_frame_inverts_encode_frame():
    assert _same(decode_frame(encode_frame(_MESSAGE)))


# ---------------------------------------------------------------------------
# the blocking receive path: recv_message
# ---------------------------------------------------------------------------
@pytest.fixture
def sockets():
    """A connected ``(ours, theirs)`` socket pair."""
    ours, theirs = socket.socketpair()
    ours.settimeout(5)
    yield ours, theirs
    ours.close()
    theirs.close()


def test_frame_sent_one_byte_at_a_time_decodes_to_its_source(sockets):
    ours, theirs = sockets
    frame = encode_frame(_MESSAGE)

    def trickle():
        for i in range(len(frame)):
            theirs.sendall(frame[i : i + 1])

    sender = threading.Thread(target=trickle)
    sender.start()
    message = recv_message(ours)
    sender.join()
    assert _same(message)


@pytest.mark.parametrize("cut", [2, 4, 20])
def test_eof_inside_a_frame_is_none(sockets, cut):
    ours, theirs = sockets
    theirs.sendall(encode_frame(_MESSAGE)[:cut])
    theirs.close()
    assert recv_message(ours) is None


def test_length_over_max_frame_raises(sockets):
    ours, theirs = sockets
    theirs.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
    with pytest.raises(BusError, match="oversized"):
        recv_message(ours)


def test_length_prefix_alone_allocates_one_bounded_read(sockets):
    """A peer that announces 512 MB and hangs up costs one bounded read:
    the buffer grows as bytes arrive, never from the prefix alone."""
    ours, theirs = sockets
    theirs.sendall(MAX_FRAME.to_bytes(4, "big") + b"x" * 100)
    theirs.close()
    tracemalloc.start()
    try:
        assert recv_message(ours) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= wire._READ + 64 * 1024


def test_frame_larger_than_a_read_reaches_feed_whole(pair):
    connection, peer = pair
    big = {"op": "store-put", "key": "k" * 16, "blob": np.arange(300_000)}
    frame = encode_frame(big)
    sender = threading.Thread(target=peer.sendall, args=(frame,))
    sender.start()
    (message,) = _feed_until(connection, 1)
    sender.join()
    np.testing.assert_array_equal(message["blob"], big["blob"])
    assert not connection.buffer


def test_loads_adopts_a_bytearray_and_copies_anything_else():
    blob = codec.dumps(_MESSAGE, BUS_MESSAGE_KIND)
    adopted = bytearray(blob)
    array = codec.loads(adopted, BUS_MESSAGE_KIND)["blob"]
    assert np.shares_memory(array, np.frombuffer(adopted, dtype=np.uint8))

    private = codec.loads(blob, BUS_MESSAGE_KIND)["blob"]
    assert private.flags.writeable
    assert not np.shares_memory(private, np.frombuffer(blob, dtype=np.uint8))
    private[:] = 0  # writable, and the source blob is untouched
    assert codec.loads(blob, BUS_MESSAGE_KIND)["blob"][1] == 1
