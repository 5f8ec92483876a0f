"""Server-side frame splitting: :class:`repro.wire._Connection.feed`."""

import socket

import numpy as np
import pytest

from repro.wire import MAX_FRAME, _Connection, decode_frame, encode_frame

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
