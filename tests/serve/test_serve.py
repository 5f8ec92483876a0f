"""Attack-as-a-service: coalescing, dispatch, reads by key, parity.

The cheap tests drive a real :class:`AttackServer` loop with a
*hand-rolled* worker socket (the test speaks the worker wire protocol
itself), so scheduling semantics — coalescing, one job per worker,
dispatch before the store write, requeue and terminal failure,
disconnect recovery — are asserted without training anything.  One
expensive test runs the full stack (server + ``run_worker`` thread +
:class:`ServeClient`) on a real smoke job and asserts the served
artifact is bit-identical to a serial :func:`execute_job` run.
"""

import os
import pathlib
import signal
import socket as socketlib
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import faults
from repro.bus.protocol import BUS_MESSAGE_KIND
from repro.client import ServeClient
from repro.experiments import SMOKE_SCALE, make_cell
from repro.experiments.runner import AttackJob, execute_job
from repro.faults import FaultPlan, FaultSite, RetryPolicy
from repro.serve import AttackServer, ServeError
from repro.store import codec
from repro.wire import (
    MAX_FRAME,
    EndpointUnreachable,
    parse_address,
    recv_message,
    send_message,
)

_FAST = RetryPolicy(base_delay=0.01, max_delay=0.05, connect_timeout=5.0,
                    read_timeout=20.0)
#: A dead server loop fails a probe in seconds, not minutes.
_PROBE = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05,
                     connect_timeout=2.0, read_timeout=2.0)


@pytest.fixture
def server(tmp_path):
    """A live server loop on an ephemeral port, joined at teardown."""
    srv = AttackServer(
        "127.0.0.1:0", tmp_path / "store", poll=0.02, log=lambda *a: None
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    client = ServeClient(srv.address, retry=_FAST)
    try:
        client.shutdown()
    except ServeError:  # pragma: no cover - already stopped
        pass
    thread.join(timeout=10)
    srv.close()


def _job(key: str = "a" * 16) -> AttackJob:
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    return AttackJob(store_key=key, circuit={"fake": 1}, config=cell.config)


class _Peer:
    """A raw protocol speaker: client or hand-rolled worker."""

    def __init__(self, address: str):
        host, port = parse_address(address)
        self.sock = socketlib.create_connection((host, port), timeout=10)
        self.sock.settimeout(10)

    def send(self, payload: dict) -> None:
        send_message(self.sock, payload)

    def recv(self) -> dict | None:
        return recv_message(self.sock)

    def close(self) -> None:
        self.sock.close()

    # -- as a worker ---------------------------------------------------------
    def hello(self) -> "_Peer":
        self.send({"op": "hello", "role": "worker"})
        return self

    def silent(self, seconds: float = 0.3) -> bool:
        """Whether no frame arrives within *seconds*."""
        self.sock.settimeout(seconds)
        try:
            self.recv()
        except socketlib.timeout:
            return True
        finally:
            self.sock.settimeout(10)
        return False

    # -- as a client ---------------------------------------------------------
    def submit(self, job: AttackJob, wait: bool = True) -> str:
        from repro.bus.protocol import encode_job

        self.send(
            {
                "op": "submit",
                "key": job.store_key,
                "job": encode_job(job),
                "wait": wait,
            }
        )
        reply = self.recv()
        assert reply is not None and reply["op"] == "accepted"
        return str(reply["status"])


def test_coalescing_trains_exactly_once(server):
    """K identical concurrent submits schedule ONE job; everyone gets
    the result frame; the store is written once."""
    job = _job()
    clients = [_Peer(server.address) for _ in range(3)]
    statuses = [c.submit(job, wait=True) for c in clients]
    assert statuses == ["queued", "coalesced", "coalesced"]

    worker = _Peer(server.address).hello()
    pushed = worker.recv()
    assert pushed is not None and pushed["op"] == "job"
    assert pushed["key"] == job.store_key and pushed["attempt"] == 0
    result = {"answer": np.arange(4, dtype=np.float64)}
    worker.send(
        {"op": "done", "key": job.store_key, "kind": "attacks",
         "result": result}
    )

    for client in clients:
        frame = client.recv()
        assert frame is not None and frame["op"] == "result" and frame["ok"]
        np.testing.assert_array_equal(frame["result"]["answer"],
                                      result["answer"])
        client.close()
    assert server.store.stats.writes == 1
    assert server.stats.scheduled == 1
    assert server.stats.coalesced == 2
    assert server.stats.completed == 1

    # Warm resubmit: answered from the memory tier, fleet untouched.
    warm = _Peer(server.address)
    assert warm.submit(job, wait=False) == "hit"
    assert server.stats.memory_hits == 1
    assert server.stats.scheduled == 1
    warm.close()
    worker.close()


def test_old_worker_asking_for_depth_two_holds_one_job(server):
    """The ``pipeline`` field an older ``repro worker`` sends in its
    hello is ignored: the connection holds one job, and the second is
    pushed only once the first is ``done``."""
    worker = _Peer(server.address)
    worker.send({"op": "hello", "role": "worker", "pipeline": 2})
    client = _Peer(server.address)
    keys = ["a" * 16, "b" * 16]
    for key in keys:
        client.submit(_job(key), wait=False)

    assert worker.recv()["key"] == keys[0]
    assert worker.silent()  # the second stays queued
    assert list(server.queue) == keys[1:]
    worker.send({"op": "done", "key": keys[0], "kind": "attacks",
                 "result": {"x": 1}})
    assert worker.recv()["key"] == keys[1]
    worker.close()
    client.close()


def test_third_job_goes_to_the_first_worker_to_reply(server):
    """Two workers, three queued jobs: one job each, and the third waits
    for whichever worker replies first."""
    workers = [_Peer(server.address).hello() for _ in range(2)]
    client = _Peer(server.address)
    keys = ["a" * 16, "b" * 16, "c" * 16]
    for key in keys:
        client.submit(_job(key), wait=False)

    held = [worker.recv()["key"] for worker in workers]
    assert sorted(held) == keys[:2]
    assert all(worker.silent() for worker in workers)
    first, other = workers[1], workers[0]
    first.send({"op": "done", "key": held[1], "kind": "attacks",
                "result": {"x": 1}})
    assert first.recv()["key"] == keys[2]
    assert other.silent()
    for peer in (*workers, client):
        peer.close()


def test_freed_worker_gets_its_next_job_before_the_store_write(
    tmp_path, monkeypatch
):
    """A ``done`` frees its worker and dispatches the next job before
    the finished artifact is written to the store and sent to its
    waiter, so that write overlaps the next training.  The loop turns
    in this thread, one :meth:`AttackServer.step` at a time."""
    from repro.bus.protocol import encode_job
    from repro.wire import _Connection

    srv = AttackServer("127.0.0.1:0", tmp_path / "store", poll=1.0,
                       log=lambda *a: None)
    order = []

    def step_until(done) -> None:
        deadline = time.monotonic() + 10
        while not done() and time.monotonic() < deadline:
            srv.step()
        assert done()

    try:
        worker = _Peer(srv.address).hello()
        step_until(lambda: len(srv.workers) == 1)

        def deliver(frame: dict) -> None:
            if frame["op"] == "result":
                order.append(("result", frame["key"]))

        sink = SimpleNamespace(send=deliver)
        keys = ["a" * 16, "b" * 16]
        for key in keys:
            srv.submit(sink, key, encode_job(_job(key)), wait=True)
        step_until(lambda: srv.busy)
        assert worker.recv()["key"] == keys[0]

        send, put = _Connection.send, srv.store.put

        def sending(connection, payload):
            if payload.get("op") == "job":
                order.append(("job", payload["key"]))
            return send(connection, payload)

        def putting(kind, key, payload):
            order.append(("store", key))
            return put(kind, key, payload)

        monkeypatch.setattr(_Connection, "send", sending)
        monkeypatch.setattr(srv.store, "put", putting)
        worker.send({"op": "done", "key": keys[0], "kind": "attacks",
                     "result": {"x": 1}})
        step_until(lambda: srv.stats.completed == 1)
        assert order == [
            ("job", keys[1]), ("store", keys[0]), ("result", keys[0])
        ]
        assert worker.recv()["key"] == keys[1]
        worker.close()
    finally:
        srv.close()


def test_failed_attempts_requeue_then_turn_terminal(tmp_path):
    srv = AttackServer(
        "127.0.0.1:0", tmp_path / "store", poll=0.02,
        retry=RetryPolicy(max_attempts=2), log=lambda *a: None,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        job = _job()
        client = _Peer(srv.address)
        assert client.submit(job, wait=True) == "queued"
        worker = _Peer(srv.address).hello()

        pushed = worker.recv()
        assert pushed["attempt"] == 0
        worker.send({"op": "failed", "key": job.store_key,
                     "traceback": "boom one"})
        retried = worker.recv()  # requeued: the attempt budget has room
        assert retried["key"] == job.store_key and retried["attempt"] == 1
        worker.send({"op": "failed", "key": job.store_key,
                     "traceback": "boom two"})

        frame = client.recv()  # terminal: the waiter hears the failure
        assert frame["op"] == "result" and not frame["ok"]
        assert "boom two" in frame["error"]
        assert srv.stats.requeues == 1 and srv.stats.failed == 1
        worker.close()
        client.close()
    finally:
        ServeClient(srv.address, retry=_FAST).shutdown()
        thread.join(timeout=10)
        srv.close()


def test_dead_worker_connection_requeues_its_window(server):
    client = _Peer(server.address)
    job = _job()
    client.submit(job, wait=True)
    victim = _Peer(server.address).hello()
    assert victim.recv()["key"] == job.store_key
    victim.close()  # dies mid-job: the job it held must requeue

    relief = _Peer(server.address).hello()
    pushed = relief.recv()
    assert pushed["key"] == job.store_key and pushed["attempt"] == 1
    relief.send({"op": "done", "key": job.store_key, "kind": "attacks",
                 "result": {"x": 1}})
    frame = client.recv()
    assert frame["op"] == "result" and frame["ok"]
    assert server.stats.requeues == 1
    relief.close()
    client.close()


def test_only_the_worker_holding_a_job_settles_it(server):
    """``done`` and ``failed`` frames count only from the worker the key
    was dispatched to: a peer that never said ``hello``, or a worker
    holding other keys, can neither plant a result nor fail the job."""
    job = _job()
    client = _Peer(server.address)
    assert client.submit(job, wait=True) == "queued"

    def ignored(peer: _Peer) -> None:
        peer.send({"op": "done", "key": job.store_key, "kind": "attacks",
                   "result": {"planted": 1}})
        for _ in range(server.retry.max_attempts):
            peer.send({"op": "failed", "key": job.store_key,
                       "traceback": "planted"})
        peer.send({"op": "ping"})
        assert peer.recv()["op"] == "pong"  # the frames above were read
        assert not server.store.has("attacks", job.store_key)
        assert server.stats.completed == 0 and server.stats.failed == 0
        assert server.requests[job.store_key].attempt == 0

    stranger = _Peer(server.address)
    ignored(stranger)
    worker = _Peer(server.address).hello()
    deadline = time.monotonic() + 10
    while not server.busy and time.monotonic() < deadline:
        time.sleep(0.005)  # the job is pushed to *worker*
    bystander = _Peer(server.address).hello()
    ignored(bystander)

    assert _settle(server, worker, {"x": 1}) == job.store_key
    frame = client.recv()
    assert frame["op"] == "result" and frame["ok"]
    assert frame["result"] == {"x": 1}
    for peer in (client, stranger, worker, bystander):
        peer.close()


def test_served_attack_keeps_exec_fields_on_the_client(tmp_path):
    """A client's checkpoint path never reaches the server: a served
    attack, here run by the server's own in-process fail-over, writes
    nothing there, and the job on the wire carries no ``exec`` field."""
    import dataclasses

    from repro.benchgen import load_benchmark
    from repro.bus.protocol import encode_job
    from repro.locking import lock_dmux

    checkpoint = tmp_path / "x"
    base = _job().config
    config = dataclasses.replace(
        base,
        score_prefetch=0,
        train=dataclasses.replace(
            base.train, checkpoint_path=str(checkpoint), checkpoint_every=1,
            resume=True, log_every=1,
        ),
    )
    circuit = lock_dmux(
        load_benchmark("c1355", scale=0.1), key_size=6, seed=0
    ).circuit
    srv = AttackServer("127.0.0.1:0", tmp_path / "store", liveness=0.05,
                       poll=0.02, log=lambda *a: None)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with ServeClient(srv.address, retry=_FAST) as client:
            result = client.attack(circuit, config)
        assert srv.stats.failed_over == 1 and srv.stats.completed == 1
        assert len(result.predicted_key) == 6
        assert not checkpoint.exists()
    finally:
        ServeClient(srv.address, retry=_FAST).shutdown()
        thread.join(timeout=10)
        srv.close()

    from repro import knobs

    wire = encode_job(ServeClient.job_for(circuit, config))["config"]
    for cls, fields in ((type(config), wire), (type(config.train), wire["train"])):
        local = {
            field.name for field in dataclasses.fields(cls)
            if knobs.role(field) == knobs.EXEC
        }
        assert local and not local & set(fields), cls.__name__


def _undecodable(edit) -> dict:
    """An encoded job whose ``train`` dict another version could send."""
    from repro.bus.protocol import encode_job

    payload = encode_job(_job())
    edit(payload["config"]["train"])
    return payload


@pytest.mark.parametrize(
    "edit, field",
    [
        (
            lambda train: train.update(grad_shards=2),
            "unknown TrainConfig field 'grad_shards'",
        ),
        (
            lambda train: train.pop("epochs"),
            "missing TrainConfig field 'epochs'",
        ),
    ],
    ids=["removed-field", "missing-field"],
)
def test_undecodable_job_is_rejected_without_a_worker_attempt(
    server, edit, field
):
    """A job this version cannot decode gets an immediate terminal
    BusError result: never queued, never pushed to a worker, retried
    zero times — and the server keeps serving."""
    worker = _Peer(server.address).hello()
    client = _Peer(server.address)
    key = "d" * 16
    client.send(
        {"op": "submit", "key": key, "job": _undecodable(edit), "wait": True}
    )
    accepted = client.recv()
    assert accepted["op"] == "accepted" and accepted["status"] == "rejected"
    assert field in accepted["error"]
    frame = client.recv()
    assert frame["op"] == "result" and frame["key"] == key
    assert not frame["ok"] and field in frame["error"]
    assert "undecodable job" in frame["error"]

    worker.sock.settimeout(0.5)
    with pytest.raises(socketlib.timeout):
        worker.recv()
    assert server.stats.scheduled == 0 and server.stats.requeues == 0
    assert server.stats.failed == 1
    assert key not in server.requests and not server.queue
    _assert_serving(server.address)
    worker.close()
    client.close()


def test_client_raises_the_rejection_reason(server, monkeypatch):
    """A client whose jobs the server cannot decode gets a ServeError
    with the BusError text, not a misleading "never submitted"."""
    import repro.client as client_module
    from repro.benchgen import load_benchmark
    from repro.bus.protocol import encode_job

    def encode_with_removed_field(job):
        payload = encode_job(job)
        payload["config"]["train"]["grad_shards"] = 1
        return payload

    def encode_with_exec_field(job):
        payload = encode_job(job)
        payload["config"]["train"]["checkpoint_path"] = "/elsewhere/x"
        return payload

    circuit = load_benchmark("c1355", scale=0.1)
    client = ServeClient(server.address, retry=_FAST)
    for encode, field in (
        (encode_with_removed_field, "grad_shards"),
        (encode_with_exec_field, "checkpoint_path"),  # local to its host
    ):
        monkeypatch.setattr(client_module, "encode_job", encode)
        with pytest.raises(
            ServeError, match=f"unknown TrainConfig field '{field}'"
        ):
            client.attack(circuit, _job().config)
    client.close()
    assert server.stats.scheduled == 0


def _settle(srv: AttackServer, worker: _Peer, result: dict) -> str:
    """Act as the worker for one pushed job: answer it with *result*,
    and wait until the server has settled it."""
    pushed = worker.recv()
    assert pushed is not None and pushed["op"] == "job"
    completed = srv.stats.completed
    worker.send({"op": "done", "key": pushed["key"], "kind": "attacks",
                 "result": result})
    deadline = time.monotonic() + 10
    while srv.stats.completed == completed and time.monotonic() < deadline:
        time.sleep(0.005)
    return pushed["key"]


def _ask(peer: _Peer, key: str) -> dict:
    """A job-less submit and its one reply."""
    peer.send({"op": "submit", "key": key})
    reply = peer.recv()
    assert reply is not None
    return reply


def _counts(srv: AttackServer) -> tuple:
    stats = srv.stats
    return (stats.requests, stats.memory_hits, stats.store_hits,
            stats.coalesced, stats.scheduled)


def test_jobless_submit_answers_cold_in_flight_and_warm(tmp_path):
    """Cold: ``need-job``, counted nowhere.  In flight: ``coalesced``.
    Warm: the result frame alone, from the memory tier or the store."""
    srv = AttackServer("127.0.0.1:0", tmp_path / "store", poll=0.02,
                       cache_entries=1, log=lambda *a: None)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = _Peer(srv.address)
        first, second = _job("a" * 16), _job("b" * 16)
        cold = _ask(client, first.store_key)
        assert (cold["op"], cold["status"]) == ("accepted", "need-job")
        assert _counts(srv) == (0, 0, 0, 0, 0) and not srv.requests

        assert client.submit(first, wait=False) == "queued"
        assert _counts(srv) == (1, 0, 0, 0, 1)
        in_flight = _ask(client, first.store_key)
        assert (in_flight["op"], in_flight["status"]) == ("accepted", "coalesced")
        assert _counts(srv) == (2, 0, 0, 1, 1)

        worker = _Peer(srv.address).hello()
        _settle(srv, worker, {"x": np.arange(3.0)})
        warm = _ask(client, first.store_key)  # answered from memory
        assert warm["op"] == "result" and warm["ok"]
        assert warm["key"] == first.store_key and warm["kind"] == "attacks"
        np.testing.assert_array_equal(warm["result"]["x"], np.arange(3.0))
        assert _counts(srv) == (3, 1, 0, 1, 1)

        # A second key evicts the first from the one-entry memory tier.
        assert client.submit(second, wait=False) == "queued"
        _settle(srv, worker, {"x": np.ones(2)})
        assert _ask(client, second.store_key)["op"] == "result"
        assert _counts(srv) == (5, 2, 0, 1, 2)
        from_store = _ask(client, first.store_key)
        assert from_store["op"] == "result"
        np.testing.assert_array_equal(from_store["result"]["x"], np.arange(3.0))
        assert _counts(srv) == (6, 2, 1, 1, 2)
        assert srv.stats.completed == 2
        worker.close()
        client.close()
    finally:
        ServeClient(srv.address, retry=_FAST).shutdown()
        thread.join(timeout=10)
        srv.close()


@pytest.mark.parametrize(
    "frame",
    [
        {"op": "submit", "key": "../up"},
        {"op": "submit", "key": "a" * 16, "job": "not a job"},
        {"op": "submit", "key": "a" * 16, "job": None},
        {"op": "submit", "key": "a" * 16, "job": {"kind": "bogus"}},
        {"op": "submit", "key": "a" * 16, "kind": "../up"},
    ],
    ids=["bad-key", "str-job", "none-job", "unknown-kind", "bad-kind"],
)
def test_malformed_jobless_submit_drops_only_its_connection(server, frame):
    peer = _Peer(server.address)
    peer.send(frame)
    assert _hung_up(peer.sock)
    peer.close()
    _assert_serving(server.address)
    assert server.stats.requests == 0


def test_memory_hit_sends_the_cached_frame_without_encoding(
    server, monkeypatch
):
    """The memory tier holds encoded frames: a hit encodes nothing."""
    client = _Peer(server.address)
    job = _job()
    client.submit(job, wait=False)
    worker = _Peer(server.address).hello()
    _settle(server, worker, {"x": np.arange(4.0)})
    assert _ask(client, job.store_key)["op"] == "result"  # now cached

    encoded = []
    dumps = codec.dumps

    def counting(payload, kind, **options):
        if isinstance(payload, dict) and payload.get("op") == "result":
            encoded.append(payload["key"])
        return dumps(payload, kind, **options)

    monkeypatch.setattr(codec, "dumps", counting)
    for _ in range(3):
        assert _ask(client, job.store_key)["op"] == "result"
    client.send({"op": "wait", "key": job.store_key, "kind": "attacks"})
    assert client.recv()["op"] == "result"
    assert encoded == []
    assert server.stats.memory_hits == 4
    worker.close()
    client.close()


def test_warm_attack_is_one_jobless_exchange(server, monkeypatch):
    """``ServeClient.attack`` on a warm key sends one frame — the key,
    not the netlist — and decodes through ``repro.client._DECODERS``."""
    import repro.client as client_module
    import repro.wire as wire
    from repro.benchgen import load_benchmark

    circuit, config = load_benchmark("c1355", scale=0.1), _job().config
    key = ServeClient.predict_store_key(circuit, config)
    server.store.put("attacks", key, {"x": np.arange(2.0)})
    monkeypatch.setitem(client_module._DECODERS, "attacks", lambda p: p)
    sent = []
    send = wire.send_message

    def recording(sock, payload):
        sent.append(payload)
        send(sock, payload)

    monkeypatch.setattr(wire, "send_message", recording)
    client = ServeClient(server.address, retry=_FAST)
    served = client.attack(circuit, config)
    client.close()
    np.testing.assert_array_equal(served["x"], np.arange(2.0))
    assert sent == [{"op": "submit", "key": key, "kind": "attacks"}]
    assert (server.stats.requests, server.stats.store_hits) == (1, 1)
    assert hasattr(ServeClient, "job_for")


def test_undecodable_served_artifact_is_a_serve_error(server):
    """A result payload that is not an attack artifact raises ServeError
    naming the key, from ``result`` and from a warm ``attack`` alike."""
    from repro.benchgen import load_benchmark

    circuit, config = load_benchmark("c1355", scale=0.1), _job().config
    client = ServeClient(server.address, retry=_FAST)
    key, status = client.submit(circuit, config)
    assert status == "queued"
    worker = _Peer(server.address).hello()
    assert _settle(server, worker, {"x": 1}) == key
    with pytest.raises(ServeError, match=f"{key[:12]}… does not decode"):
        client.result(key, timeout=10)
    with pytest.raises(ServeError, match=f"{key[:12]}… does not decode"):
        client.attack(circuit, config)
    client.close()
    worker.close()


def _attack_payload(model=None) -> dict:
    """The artifact of a hand-made 8-bit attack result."""
    from repro.core import MuxLinkResult
    from repro.core.postprocess import ScoredMux
    from repro.linkpred import TrainHistory
    from repro.store import encode_attack_artifact

    scored = [
        ScoredMux(f"mux{i}", i, 100 + i, (2 * i, 2 * i + 1),
                  (0.9, 0.1) if i % 3 else (0.2, 0.7))
        for i in range(8)
    ]
    history = TrainHistory(train_loss=[0.7, 0.5], val_loss=[0.6, 0.55])
    result = MuxLinkResult("x" * 8, scored, 8, history, {"training": 1.0},
                           model=model)
    return encode_attack_artifact(result)


def _serve_one(server, payload: dict) -> tuple[ServeClient, str, tuple]:
    """Submit a job and settle it with *payload*; the client, key and
    the ``(circuit, config)`` the key is for."""
    from repro.benchgen import load_benchmark

    circuit, config = load_benchmark("c1355", scale=0.1), _job().config
    client = ServeClient(server.address, retry=_FAST)
    key, status = client.submit(circuit, config)
    assert status == "queued"
    worker = _Peer(server.address).hello()
    assert _settle(server, worker, payload) == key
    worker.close()
    return client, key, (circuit, config)


def test_served_artifact_with_a_short_column_is_a_serve_error(server):
    """Parallel columns of different lengths do not decode into a
    truncated result: reading the key raises, warm or not."""
    payload = _attack_payload()
    payload["scored"]["l1"] = payload["scored"]["l1"][:3]
    client, key, (circuit, config) = _serve_one(server, payload)
    with pytest.raises(ServeError, match=f"{key[:12]}… does not decode"):
        client.result(key, timeout=10)
    with pytest.raises(ServeError, match=f"{key[:12]}… does not decode"):
        client.attack(circuit, config)
    client.close()


def test_served_hit_builds_its_model_on_first_read(server, monkeypatch):
    """A warm ``attack`` decodes likelihoods only; the DGCNN is built,
    once, from the served weights when ``model`` is first read."""
    from repro.core import rescore_key
    from repro.gnn import DGCNN

    trained = DGCNN(in_features=4, k=10, seed=3)
    payload = _attack_payload(trained)
    client, key, (circuit, config) = _serve_one(server, payload)
    built = []
    init = DGCNN.__init__
    monkeypatch.setattr(
        DGCNN, "__init__",
        lambda self, *a, **k: (built.append(self), init(self, *a, **k))[1],
    )
    served = client.attack(circuit, config)
    client.close()
    assert rescore_key(served, 0.01) == "10010010"
    assert built == []
    model = served.model
    assert built == [model] and served.model is model
    assert not model.training
    for ours, theirs in zip(model.state_dict(), trained.state_dict()):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_stops_serve_and_reaps_its_workers(tmp_path, workers):
    """The forked fleet leaves the server accepting: once every worker
    has connected, a ping and a smoke attack still succeed.  SIGTERM
    then leaves the loop like a ``shutdown`` op, and the server still
    terminates its workers.  They share its stdout, so EOF on that pipe
    means no worker outlived the server."""
    from repro.benchgen import load_benchmark
    from repro.experiments.common import lock_with

    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
    locked = lock_with(cell.scheme, base, key_size=cell.key_size,
                       seed=cell.lock_seed)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--addr", "127.0.0.1:0", "--store", str(tmp_path / "store"),
            "--workers", str(workers), "--poll", "0.05",
        ],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    box = {"connected": 0}
    ready = threading.Event()

    def wait_for_workers() -> None:
        for line in proc.stdout:
            if line.startswith("serve: listening on "):
                box["address"] = line.split()[3]
            if "worker connected" in line:
                box["connected"] += 1
                if box["connected"] == workers:
                    ready.set()
                    return

    try:
        reader = threading.Thread(target=wait_for_workers, daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert ready.is_set(), f"{box['connected']}/{workers} workers connected"
        served = {}

        def probe() -> None:
            client = ServeClient(box["address"], retry=_FAST)
            try:
                served["ping"] = client.ping()
                served["attack"] = client.attack(locked.circuit, cell.config)
            except Exception as exc:  # surfaced by the asserts below
                served["error"] = exc
            finally:
                client.close()

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        prober.join(timeout=120)
        assert served.get("ping"), f"no ping reply after fork: {served}"
        assert "attack" in served, f"no smoke attack result: {served}"
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        try:  # a failed run must not orphan the forked workers either
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, output
    assert "serve: requests=1 hits=0+0 coalesced=0 scheduled=1 completed=1" in output


def test_serve_without_fork_names_the_external_fleet(
    tmp_path, monkeypatch, capsys
):
    """Where ``os.fork`` is missing, ``--workers N`` is a typed error
    pointing at ``--workers 0`` plus ``repro worker --serve-addr``."""
    import multiprocessing

    from repro.cli import main

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    argv = ["serve", "--addr", "127.0.0.1:0", "--store", str(tmp_path),
            "--workers", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert "--workers 0" in err and "repro worker --serve-addr" in err
    assert "listening" not in out  # refused before binding the port


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--workers", "-1"], "workers must be >= 0, got -1"),
        (["--workers", "0", "--cache-entries", "-1"],
         "cache entries must be >= 0, got -1"),
    ],
    ids=["workers", "cache-entries"],
)
def test_serve_rejects_a_negative_size_before_binding(
    tmp_path, monkeypatch, capsys, flags, message
):
    """A negative fleet or memory-cache size exits 2 before the port is
    bound; a negative cache would otherwise kill the server on its
    first completed job or store-tier hit."""
    from repro.cli import main

    monkeypatch.setattr(
        AttackServer, "serve_forever",
        lambda self: pytest.fail("the server bound its port and served"),
    )
    argv = ["serve", "--addr", "127.0.0.1:0", "--store", str(tmp_path)]
    assert main(argv + flags) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert "listening" not in out


def test_wait_for_unknown_key_fails_fast(server):
    client = ServeClient(server.address, retry=_FAST)
    with pytest.raises(ServeError, match="never submitted"):
        client.result("f" * 16)
    client.close()


def test_non_mapping_reply_is_a_serve_error_naming_the_op():
    """A peer that answers ``ping`` with a list, not a dict, makes the
    client raise ServeError, never an AttributeError traceback."""
    listener = socketlib.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def fake_server():
        conn, _ = listener.accept()
        with conn:
            recv_message(conn)
            send_message(conn, [1, 2, 3])
            conn.recv(1)  # hold the line until the client hangs up

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    client = ServeClient(f"127.0.0.1:{port}", retry=_FAST)
    try:
        with pytest.raises(ServeError, match="ping.*list, not a mapping"):
            client.ping()
    finally:
        client.close()
        thread.join(timeout=10)
        listener.close()


def test_accept_drop_is_absorbed_by_client_retry(server):
    faults.activate(
        FaultPlan(
            "drop", sites=(FaultSite("serve.accept_drop", times=1),)
        )
    )
    try:
        client = ServeClient(server.address, retry=_FAST)
        assert client.ping()  # first accept dropped; reconnect wins
        client.close()
        assert faults.fired_counts() == {"serve.accept_drop": 1}
    finally:
        faults.deactivate()


# Random frames: every op the server knows (bar ``shutdown``), the
# retired store ops and an unknown one, with fields drawn from well-typed, mistyped and hostile
# values — path-escaping keys included.
_FRAME_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["a" * 16, "attacks", "../up", "", "x" * 300]),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.text(max_size=6)),
    st.builds(lambda n: np.zeros(n, dtype=np.uint8), st.integers(0, 4)),
)
_FRAMES = st.one_of(
    # job-less submits: well-formed keys, any kind
    st.fixed_dictionaries(
        {"op": st.just("submit"), "key": st.sampled_from(["a" * 16, "e" * 16])},
        optional={"kind": _FRAME_VALUES, "wait": st.booleans()},
    ),
    st.fixed_dictionaries(
        {
            "op": st.sampled_from(
                ["submit", "wait", "hello", "done", "failed", "store-has",
                 "store-get", "store-put", "stats", "ping", "bogus"]
            )
        },
        optional={
            name: _FRAME_VALUES
            for name in ("key", "kind", "job", "wait", "pipeline",
                         "result", "traceback", "blob")
        },
    ),
    st.dictionaries(st.sampled_from(["op", "key"]), _FRAME_VALUES),
    st.lists(st.integers(), max_size=3),
    st.text(max_size=5),
)


def test_malformed_frames_never_kill_the_server(server):
    """Whatever a peer sends, the loop survives: it still answers
    ``ping`` and still serves a real submit end to end."""

    @settings(max_examples=80, deadline=None)
    @given(frame=_FRAMES)
    def fire(frame):
        peer = _Peer(server.address)
        peer.send(frame)
        peer.close()
        client = ServeClient(server.address, retry=_PROBE)
        try:
            assert client.ping()
        finally:
            client.close()

    fire()
    client = _Peer(server.address)
    key = "e" * 16
    assert client.submit(_job(key), wait=True) == "queued"
    worker = _Peer(server.address).hello()
    while True:  # random submits may have queued jobs ahead of ours
        pushed = worker.recv()
        worker.send({"op": "done", "key": pushed["key"], "kind": "attacks",
                     "result": {"x": 1}})
        if pushed["key"] == key:
            break
    frame = client.recv()
    assert frame["op"] == "result" and frame["ok"] and frame["key"] == key
    worker.close()
    client.close()


def _hung_up(sock: socketlib.socket) -> bool:
    """Whether the server closed this connection (EOF, not a timeout)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def _assert_serving(address: str) -> None:
    client = ServeClient(address, retry=_PROBE)
    try:
        assert client.ping()
    finally:
        client.close()


def _frame(blob: bytes) -> bytes:
    return len(blob).to_bytes(4, "big") + blob


def _crafted_frame(monkeypatch, crafted: str) -> bytes:
    """A frame in the codec's own format whose manifest is hostile."""
    with monkeypatch.context() as patch:
        if crafted == "list-manifest":
            patch.setattr(codec, "json", SimpleNamespace(dumps=lambda *a, **k: "[7]"))
        else:
            tree = {"array-ref": {"__array__": 7}, "tuple": {"__tuple__": 5}}
            patch.setattr(codec, "_flatten", lambda payload, arrays: tree[crafted])
        return _frame(codec.dumps(None, kind=BUS_MESSAGE_KIND))


@pytest.mark.parametrize("crafted", ["array-ref", "tuple", "list-manifest"])
def test_crafted_frame_drops_only_its_connection(server, monkeypatch, crafted):
    """A decodable-looking frame with a dangling array reference, a
    non-list tuple or a non-object manifest is a CodecError: the server
    hangs up on that peer and keeps answering everyone else."""
    peer = _Peer(server.address)
    peer.sock.settimeout(5)
    peer.sock.sendall(_crafted_frame(monkeypatch, crafted))
    assert _hung_up(peer.sock)
    peer.close()
    _assert_serving(server.address)


_PING = _frame(codec.dumps({"op": "ping"}, kind=BUS_MESSAGE_KIND))
_ASK = _frame(
    codec.dumps({"op": "submit", "key": "a" * 16}, kind=BUS_MESSAGE_KIND)
)
_WIRE = st.one_of(
    # half a job-less submit, then a close
    st.integers(1, len(_ASK) - 1).map(lambda cut: (_ASK[:cut], False)),
    # random bytes, then a close
    st.binary(max_size=64).map(lambda junk: (junk, False)),
    # half a frame, then a close
    st.integers(1, len(_PING) - 1).map(lambda cut: (_PING[:cut], False)),
    # a valid length prefix with garbage behind it: dropped
    st.binary(min_size=1, max_size=64).map(lambda junk: (_frame(junk), True)),
    # a length prefix above MAX_FRAME: dropped before any body arrives
    st.integers(MAX_FRAME + 1, 2**32 - 1).map(
        lambda n: (n.to_bytes(4, "big"), True)
    ),
)


def test_wire_fuzz_never_kills_the_server(server):
    """Bytes that are not frames cost the sender its connection, never
    the server: a fresh client is answered after every attempt."""

    @settings(max_examples=60, deadline=None)
    @given(case=_WIRE)
    def fire(case):
        data, dropped = case
        peer = _Peer(server.address)
        peer.sock.settimeout(5)
        peer.sock.sendall(data)
        if dropped:
            assert _hung_up(peer.sock)
        peer.close()
        _assert_serving(server.address)

    fire()


_BAD_ADDRESSES = ["", "host:", "host:abc", ":70000", "nonsense"]


@pytest.mark.parametrize("address", _BAD_ADDRESSES)
def test_bad_address_is_a_typed_error(address, tmp_path, capsys):
    from repro.bus import BusError
    from repro.cli import main

    with pytest.raises(BusError):
        parse_address(address)
    argv = ["serve", "--addr", address, "--store", str(tmp_path),
            "--workers", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    if address:  # an empty flag falls back to the default address
        for argv in (
            ["worker", "--serve-addr", address],
            ["figures", "--scale", "smoke", "--bus-addr", address],
            ["leaderboard", "--scale", "smoke", "--bus-addr", address],
        ):
            assert main(argv) == 2, argv
            assert "error: " in capsys.readouterr().err


def test_serve_client_example_runs(tmp_path):
    """``examples/serve_client.py`` boots a real server and walks every
    section of the serving layer; it must exit 0."""
    example = (pathlib.Path(__file__).resolve().parents[2] / "examples"
               / "serve_client.py")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=180)
    finally:
        try:  # the example's server and its forked workers, if left over
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, output
    assert "=== 3. Read any served artifact by its key ===" in output


# ---------------------------------------------------------------------------
# The expensive end of the contract: real training, bit-identical.
# ---------------------------------------------------------------------------
def _fingerprint(payload: dict):
    def canon(value):
        if isinstance(value, dict):
            return tuple(sorted((k, canon(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(canon(v) for v in value)
        if isinstance(value, np.ndarray):
            return (str(value.dtype), value.shape, value.tobytes())
        return value

    return canon({k: v for k, v in payload.items()
                  if k != "runtime_seconds"})


def test_served_attack_bit_identical_to_serial(tmp_path):
    from repro.benchgen import load_benchmark
    from repro.bus.worker import run_worker
    from repro.experiments.common import lock_with
    from repro.store import encode_attack_artifact

    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
    locked = lock_with(cell.scheme, base, key_size=cell.key_size,
                       seed=cell.lock_seed)
    job = ServeClient.job_for(locked.circuit, cell.config)
    reference = _fingerprint(execute_job(job))

    srv = AttackServer("127.0.0.1:0", tmp_path / "store", poll=0.02,
                       log=lambda *a: None)
    loop = threading.Thread(target=srv.serve_forever, daemon=True)
    loop.start()
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(serve_addr=srv.address, poll=0.02, max_jobs=1,
                    log=lambda *a: None),
        daemon=True,
    )
    worker.start()
    try:
        client = ServeClient(srv.address, retry=_FAST)
        key, status = client.submit(locked.circuit, cell.config)
        assert status == "queued" and key == job.store_key
        client.result(key, timeout=240)  # blocks until trained
        served = _fingerprint(srv.store.get("attacks", key))
        assert served == reference  # bit-identical, timing aside
        assert srv.stats.requeues == 0 and srv.stats.failed == 0

        # Warm: the same request never reaches the fleet again, and the
        # key-first hit decodes to the same artifact.
        _, warm_status = client.submit(locked.circuit, cell.config)
        assert warm_status == "hit"
        hit = client.attack(locked.circuit, cell.config)
        assert _fingerprint(encode_attack_artifact(hit)) == reference
        assert srv.stats.scheduled == 1
        client.shutdown()
    finally:
        loop.join(timeout=30)
        worker.join(timeout=30)
        srv.close()


# ---------------------------------------------------------------------------
# Reading artifacts: by key, through ServeClient.result only.
# ---------------------------------------------------------------------------
def test_injected_read_timeout_is_retried(server):
    """``client.read_timeout`` times out the read after the ``wait`` is
    sent; the retry policy reconnects and the artifact still arrives."""
    server.store.put("locks", "c" * 16, {"n": 1})  # a kind with no decoder
    client = ServeClient(server.address, retry=_FAST)
    faults.activate(
        FaultPlan(
            "timeout", sites=(FaultSite("client.read_timeout", times=1),)
        )
    )
    try:
        assert client.result("c" * 16, kind="locks")["n"] == 1
        assert faults.fired_counts() == {"client.read_timeout": 1}
    finally:
        faults.deactivate()
        client.close()


def test_result_raises_once_the_server_is_gone(tmp_path):
    """A server that exits after the submit is reported within the retry
    budget, naming its address — ``result`` never waits on it forever."""
    srv = AttackServer("127.0.0.1:0", tmp_path / "store", poll=0.02,
                       log=lambda *a: None)
    loop = threading.Thread(target=srv.serve_forever, daemon=True)
    loop.start()
    client = ServeClient(srv.address, retry=_FAST)
    try:
        assert client.submit_job(_job())["status"] == "queued"
        srv.stop()
        loop.join(timeout=10)
        srv.close()
        box = {}

        def wait() -> None:
            try:
                client.result("a" * 16)  # no timeout: the case that spun
            except Exception as exc:
                box["error"] = exc

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "result() still waiting on a dead server"
        assert isinstance(box.get("error"), EndpointUnreachable), box
        assert srv.address in str(box["error"])
    finally:
        client.close()


def test_result_waits_through_read_timeouts_on_a_live_server(server):
    """A read timeout on a live connection is not a dead server: the
    wait goes on until the caller's own *timeout*."""
    peer = _Peer(server.address)
    assert peer.submit(_job(), wait=False) == "queued"  # no worker: stays
    slow = RetryPolicy(base_delay=0.01, max_delay=0.05, connect_timeout=2.0,
                       read_timeout=0.2)
    client = ServeClient(server.address, retry=slow)
    try:
        with pytest.raises(ServeError, match="within 1s") as caught:
            client.result("a" * 16, timeout=1.0)
        assert not isinstance(caught.value, EndpointUnreachable)
    finally:
        client.close()
        peer.close()


def test_retired_store_ops_are_inert(server):
    """The ``store-put`` / ``store-get`` / ``store-has`` frames a remote
    store used to send are unknown ops now: no reply, no store write, no
    counter, and the server answers the same peer and the next client."""
    server.store.put("attacks", "d" * 16, {"n": 2})
    entries = sorted(path.name for path in server.store.root.rglob("*"))
    before = server.stats.as_payload()
    planted = np.frombuffer(codec.dumps({"n": 3}, kind="attacks"),
                            dtype=np.uint8)
    peer = _Peer(server.address)
    peer.send({"op": "store-put", "kind": "attacks", "key": "f" * 16,
               "blob": planted})
    peer.send({"op": "store-put", "kind": "attacks", "key": "d" * 16,
               "blob": planted})
    peer.send({"op": "store-get", "kind": "attacks", "key": "d" * 16})
    peer.send({"op": "store-has", "kind": "attacks", "key": "d" * 16})
    peer.send({"op": "ping"})
    assert peer.recv() == {"op": "pong"}  # the first reply: nothing before
    peer.close()

    assert not server.store.has("attacks", "f" * 16)
    assert server.store.get("attacks", "d" * 16) == {"n": 2}
    assert sorted(path.name for path in server.store.root.rglob("*")) == entries
    assert server.stats.as_payload() == before
    _assert_serving(server.address)
