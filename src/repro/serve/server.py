"""``repro serve`` — the long-running attack-as-a-service front end.

One selector loop (the :mod:`repro.wire` plumbing and length-prefixed
codec frames) owns three kinds of peers on a single listening port:

* **clients** (:class:`repro.client.ServeClient`) submit content-keyed
  requests: ``{op: submit, key, job?, wait}`` where *key* is exactly the
  runner's :func:`~repro.store.artifacts.attack_store_key` address and
  the optional *job* is the :func:`~repro.bus.protocol.encode_job`
  payload.  A submit **without** a job asks by key alone (``kind``, the
  artifact kind, defaults to ``attacks``): a warm key is answered by its
  ``{op: result, ...}`` frame and nothing else, a key in flight by
  ``{op: accepted, status: coalesced}`` and a cold key by ``{op:
  accepted, status: need-job}`` — nothing is queued or counted, and the
  client submits again with the job.  A submit **with** a job is
  answered ``{op: accepted, status}`` at once (``hit``, ``coalesced``,
  ``queued`` or ``rejected``) and, with ``wait=True``, by the ``result``
  frame when the artifact exists.  ``{op: wait, key, kind}`` subscribes
  to that frame without submitting.
* **workers** (the fleet ``repro serve --workers N`` forks, or ``repro
  worker --serve-addr`` processes) announce themselves with
  ``{op: hello, role: worker, pipeline: N}`` and then receive **pushed**
  ``{op: job, ...}`` frames, up to *pipeline* in flight per connection —
  the worker executes serially, but the next job is already buffered in
  its socket when the current one finishes, so no request round-trip
  sits between two jobs.
* **remote stores** (:class:`repro.store.remote.RemoteStore`) read and
  write raw artifact blobs (``store-get`` / ``store-put`` /
  ``store-has``) against the server's on-disk
  :class:`~repro.store.ArtifactStore`, so workers and clients on other
  hosts need no shared filesystem.

The same loop is the coordinator of ``repro figures --bus socket``:
:class:`~repro.bus.SocketBus` owns an :class:`AttackServer`, submits its
grid in-process and drives :meth:`AttackServer.step` itself.

The warm path is three tiers: an in-memory LRU of **encoded** ``result``
frames (a memory hit is one ``sendall``), then the on-disk store (a
store hit reads the file once and writes a ``result`` manifest around
its array bytes, into the LRU), then scheduling.  The in-process
:class:`~repro.bus.SocketBus` sink is the one waiter that receives
result frames decoded.  An identical request already executing
**coalesces** — K clients asking for one key train it exactly once and
all receive the result frame.  Failure semantics: a
failed attempt requeues until ``max_attempts``, a dead worker
connection requeues its whole in-flight window, and once queued work has
waited the liveness deadline with no worker progress (only a worker
``hello``, ``done`` or ``failed`` counts) the queue fails over to
in-process execution — back to back, on a helper thread — instead of
hanging clients forever.  A malformed frame drops its connection, never
the server.
"""

from __future__ import annotations

import functools
import os
import re
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bus.protocol import (
    DEFAULT_LIVENESS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PIPELINE,
    DEFAULT_POLL,
    JOB_ARTIFACT_KINDS,
    BusError,
    RetryPolicy,
    decode_job,
    job_artifact_kind,
)
from repro.errors import ServeError
from repro.store import ArtifactStore, resolve_store
from repro.wire import (
    _Connection,
    _Server,
    decode_frame,
    encode_frame,
    load_frame,
)

__all__ = ["AttackServer", "ServeError", "ServeStats"]

#: In-memory result-cache size (encoded ``result`` frames).
DEFAULT_CACHE_ENTRIES = 256


@dataclass
class ServeStats:
    """Counters for one server lifetime (mirrored into CI summaries).

    ``scheduled`` counts *unique* jobs that went to the worker fleet —
    the coalescing tests assert ``scheduled == 1`` while ``requests``
    counts every client submit, and ``memory_hits + store_hits`` are the
    warm tiers that answered without touching the fleet.  A job-less
    submit of a cold key (answered ``need-job``) counts nowhere; the
    submit with the job that follows it counts once.
    """

    requests: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    coalesced: int = 0
    scheduled: int = 0
    completed: int = 0
    failed: int = 0
    requeues: int = 0
    failed_over: int = 0
    store_gets: int = 0
    store_puts: int = 0

    def as_payload(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        text = (
            f"requests={self.requests} "
            f"hits={self.memory_hits}+{self.store_hits} "
            f"coalesced={self.coalesced} scheduled={self.scheduled} "
            f"completed={self.completed} failed={self.failed} "
            f"requeues={self.requeues}"
        )
        if self.failed_over:
            text += f" failed-over={self.failed_over}"
        return text


def _is_name(value) -> bool:
    """A store kind or key: a short token that cannot leave its directory."""
    return (
        isinstance(value, str)
        and re.fullmatch(r"[\w-]{1,128}", value, re.ASCII) is not None
    )


def _is_job(job) -> bool:
    """An encoded job payload of a known kind."""
    kind = job.get("kind", "attack") if isinstance(job, dict) else None
    return isinstance(kind, str) and kind in JOB_ARTIFACT_KINDS


#: Fields each op must carry, and the check each must pass.
_REQUIRED = {
    "submit": {"key": _is_name},
    "wait": {"key": _is_name},
    "done": {"key": _is_name, "result": lambda r: isinstance(r, dict)},
    "failed": {"key": _is_name},
    "store-has": {"kind": _is_name, "key": _is_name},
    "store-get": {"kind": _is_name, "key": _is_name},
    "store-put": {
        "kind": _is_name,
        "key": _is_name,
        "blob": lambda blob: isinstance(blob, np.ndarray),
    },
}
#: Optional fields, checked on any op that carries them.
_OPTIONAL = {
    "job": _is_job,
    "kind": _is_name,
    "pipeline": lambda n: isinstance(n, (int, np.integer)),
}


def _malformed(message) -> bool:
    """Whether a decoded frame lacks (or mistypes) a field its op needs."""
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        return True
    required = _REQUIRED.get(message["op"], {})
    if any(
        name not in message or not check(message[name])
        for name, check in required.items()
    ):
        return True
    return any(
        name in message and not check(message[name])
        for name, check in _OPTIONAL.items()
    )


def _result(key: str, kind: str, payload: dict) -> dict:
    """The ``result`` frame of a settled artifact."""
    return {
        "op": "result", "key": key, "ok": True, "kind": kind, "result": payload
    }


def _deliver(waiter, frame: bytes | bytearray) -> None:
    """Send an encoded result frame to a connection as is, or decoded to
    an in-process sink (:class:`~repro.bus.SocketBus`)."""
    if isinstance(waiter, _Connection):
        waiter.send_frame(frame)
    else:
        waiter.send(decode_frame(frame))


@dataclass
class _Request:
    """One unique in-flight key and everyone waiting on it."""

    key: str
    job: dict  # encoded job payload (the wire shape)
    kind: str  # artifact store kind the result lands under
    attempt: int = 0
    failing_over: bool = False
    waiters: list = field(default_factory=list)  # anything with send()


@dataclass
class _WorkerLink:
    """Server-side state of one persistent pipelined worker connection."""

    pipeline: int
    inflight: deque = field(default_factory=deque)  # keys, dispatch order


class AttackServer:
    """The ``repro serve`` loop: warm cache, store, coalescing, fleet."""

    def __init__(
        self,
        address: str,
        store: "ArtifactStore | str | os.PathLike",
        max_attempts: int | None = None,
        liveness: float | None = DEFAULT_LIVENESS,
        poll: float = DEFAULT_POLL,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        retry: RetryPolicy | None = None,
        log=print,
    ) -> None:
        resolved = resolve_store(store)
        if not isinstance(resolved, ArtifactStore):
            raise ServeError(
                "repro serve needs a local artifact store directory "
                "(it *is* the remote end of remote:// stores)"
            )
        self.store = resolved
        self.retry = retry if retry is not None else RetryPolicy()
        self._server = _Server(
            address, read_timeout=self.retry.read_timeout
        )
        self.address = self._server.address
        self.poll = float(poll)
        self.max_attempts = int(
            DEFAULT_MAX_ATTEMPTS if max_attempts is None else max_attempts
        )
        self.liveness = float(liveness) if liveness else None
        self.log = log
        self.stats = ServeStats()
        self.requests: dict[str, _Request] = {}
        self.queue: deque[str] = deque()  # keys awaiting dispatch
        self.workers: dict[_Connection, _WorkerLink] = {}
        self._cache: OrderedDict[tuple[str, str], bytes | bytearray] = (
            OrderedDict()
        )
        self._cache_entries = int(cache_entries)
        self._inbox: deque = deque()  # fail-over thread -> loop
        self._inbox_lock = threading.Lock()
        self._failover_busy = False
        self._last_progress = time.monotonic()  # the liveness clock
        self._stop = False

    # -- the loop ------------------------------------------------------------
    def serve_forever(
        self,
        idle_timeout: float | None = None,
        max_requests: int | None = None,
    ) -> ServeStats:
        """Run until shut down over the wire, idle, or *max_requests*.

        *idle_timeout* counts seconds with no frames and no outstanding
        requests (``None`` = forever); *max_requests* stops once that
        many submits have been taken **and** all of them settled — both
        are test/bench conveniences, the daemon deployment uses neither.
        """
        last_activity = time.monotonic()
        try:
            while not self._stop:
                if self.step() or self.busy:
                    last_activity = time.monotonic()
                if (
                    max_requests is not None
                    and self.stats.requests >= max_requests
                    and not self.requests
                ):
                    break
                if (
                    idle_timeout is not None
                    and not self.requests
                    and time.monotonic() - last_activity > idle_timeout
                ):
                    break
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return self.stats

    def step(self) -> bool:
        """One loop turn: read frames, settle, dispatch, check liveness.

        Returns whether any peer sent a frame (or hung up) this turn.
        The liveness clock only runs while queued work waits on an idle
        fleet; once it expires, the queue fails over job after job
        until a worker says ``hello``, ``done`` or ``failed``.
        """
        events = self._server.poll(self.poll)
        for connection, messages in events:
            if messages is None:
                self._disconnect(connection)
                continue
            for message in messages:
                if _malformed(message):
                    self._disconnect(connection)
                    break
                self._handle(connection, message)
        self._drain_inbox()
        self._pump()
        now = time.monotonic()
        working = any(link.inflight for link in self.workers.values())
        if not self.queue or working:
            self._last_progress = now
        elif (
            self.liveness is not None
            and now - self._last_progress > self.liveness
        ):
            self._start_failover()
        return bool(events)

    @property
    def busy(self) -> bool:
        """A job is executing somewhere (a worker or the fail-over thread)."""
        return self._failover_busy or any(
            link.inflight for link in self.workers.values()
        )

    def stop(self) -> None:
        """Leave :meth:`serve_forever` after the current loop turn."""
        self._stop = True

    def close(self) -> None:
        self._server.close()

    def close_forked(self) -> None:
        """Release the sockets a forked child inherited, never the
        parent's (see :meth:`repro.wire._Server.close_forked`)."""
        self._server.close_forked()

    # -- message dispatch ----------------------------------------------------
    def _handle(self, connection: _Connection, message: dict) -> None:
        op = message["op"]
        if op in ("hello", "done", "failed"):
            self._last_progress = time.monotonic()  # the fleet is alive
        if op == "submit" and "job" not in message:
            self._submit_key(
                connection, message["key"], message.get("kind", "attacks")
            )
        elif op == "submit":
            self.submit(
                connection,
                message["key"],
                message["job"],
                wait=bool(message.get("wait", False)),
            )
        elif op == "wait":
            self._handle_wait(connection, message)
        elif op == "hello":
            pipeline = max(1, int(message.get("pipeline", DEFAULT_PIPELINE)))
            self.workers[connection] = _WorkerLink(pipeline=pipeline)
            self.log(
                f"serve: worker connected (pipeline {pipeline}, "
                f"{len(self.workers)} total)"
            )
        elif op == "done":
            self._handle_done(connection, message)
        elif op == "failed":
            key = message["key"]
            self._worker_settled(connection, key)
            self._fail_attempt(key, str(message.get("traceback", "")))
        elif op == "store-has":
            kind, key = message["kind"], message["key"]
            connection.send(
                {"op": "store-has", "key": key, "has": self.store.has(kind, key)}
            )
        elif op == "store-get":
            self._handle_store_get(connection, message)
        elif op == "store-put":
            self._handle_store_put(connection, message)
        elif op == "stats":
            connection.send({"op": "stats", "stats": self.stats.as_payload()})
        elif op == "ping":
            connection.send({"op": "pong"})
        elif op == "shutdown":
            connection.send({"op": "bye"})
            self.stop()
        # unknown ops are ignored: wire compatibility over strictness

    def submit(self, waiter, key: str, job: dict, wait: bool = False) -> None:
        """Take one request: answer it warm, coalesce it, queue it, or
        reject it (status ``rejected``) when the job does not decode.

        *waiter* is anything with a ``send(frame)`` method — a
        client connection, or :class:`~repro.bus.SocketBus`'s in-process
        sink.  It gets the ``accepted`` frame now and, with *wait*, the
        ``result`` frame once the artifact exists.
        """
        kind = job_artifact_kind(str(job.get("kind", "attack")))
        self.stats.requests += 1
        frame = self._lookup(kind, key)
        if frame is not None:
            waiter.send({"op": "accepted", "key": key, "status": "hit"})
            if wait:
                _deliver(waiter, frame)
            return
        request = self.requests.get(key)
        if request is not None:
            self.stats.coalesced += 1
            if wait:
                request.waiters.append(waiter)
            waiter.send({"op": "accepted", "key": key, "status": "coalesced"})
            return
        # Decoded once, on the miss path only: a job this version cannot
        # run fails now with the BusError text, never queued or retried.
        try:
            decode_job(job)
        except BusError as exc:
            self.stats.failed += 1
            waiter.send(
                {"op": "accepted", "key": key, "status": "rejected",
                 "error": str(exc)}
            )
            if wait:
                waiter.send(
                    {"op": "result", "key": key, "ok": False, "error": str(exc)}
                )
            return
        request = _Request(key=key, job=job, kind=kind)
        if wait:
            request.waiters.append(waiter)
        self.requests[key] = request
        self.queue.append(key)
        self.stats.scheduled += 1
        waiter.send({"op": "accepted", "key": key, "status": "queued"})

    def _submit_key(
        self, connection: _Connection, key: str, kind: str
    ) -> None:
        """A job-less submit: one exchange for a warm key.

        Warm: the cached ``result`` frame is the whole reply.  In flight:
        ``coalesced`` (the client then waits).  Cold: ``need-job``,
        counted nowhere — the client's submit with the job counts.
        """
        frame = self._lookup(kind, key)
        if frame is not None:
            self.stats.requests += 1
            connection.send_frame(frame)
        elif key in self.requests:
            self.stats.requests += 1
            self.stats.coalesced += 1
            connection.send(
                {"op": "accepted", "key": key, "status": "coalesced"}
            )
        else:
            connection.send(
                {"op": "accepted", "key": key, "status": "need-job"}
            )

    def _handle_wait(self, connection: _Connection, message: dict) -> None:
        key = message["key"]
        kind = message.get("kind", "attacks")
        frame = self._lookup(kind, key, count_request=False)
        if frame is not None:
            connection.send_frame(frame)
            return
        request = self.requests.get(key)
        if request is not None:
            request.waiters.append(connection)
            return
        connection.send(
            {
                "op": "result",
                "key": key,
                "ok": False,
                "error": f"unknown request key {key[:12]}… (never submitted?)",
            }
        )

    def _handle_done(self, connection: _Connection, message: dict) -> None:
        key = message["key"]
        self._worker_settled(connection, key)
        request = self.requests.get(key)
        if request is None:
            return  # settled elsewhere (fail-over raced a live worker)
        self._complete(key, message["result"])

    def _handle_store_get(self, connection: _Connection, message: dict) -> None:
        kind, key = message["kind"], message["key"]
        self.stats.store_gets += 1
        try:
            blob = self.store.path_for(kind, key).read_bytes()
        except (FileNotFoundError, OSError):
            connection.send(
                {"op": "store-blob", "key": key, "found": False, "blob": None}
            )
            return
        connection.send(
            {
                "op": "store-blob",
                "key": key,
                "found": True,
                # codec payloads carry no raw bytes: ship the file image
                # as a uint8 array, byte-for-byte what the store holds.
                "blob": np.frombuffer(blob, dtype=np.uint8),
            }
        )

    def _handle_store_put(self, connection: _Connection, message: dict) -> None:
        from repro.store import codec

        kind, key = message["kind"], message["key"]
        self.stats.store_puts += 1
        blob = message["blob"]
        try:
            payload = codec.loads(blob.tobytes(), kind=kind)
            self.store.put(kind, key, payload)
        except Exception as exc:
            connection.send(
                {"op": "store-ok", "key": key, "ok": False, "error": str(exc)}
            )
            return
        connection.send({"op": "store-ok", "key": key, "ok": True})

    # -- warm tiers ----------------------------------------------------------
    def _lookup(
        self, kind: str, key: str, count_request: bool = True
    ) -> bytes | bytearray | None:
        """A warm key's encoded ``result`` frame; ``None`` = genuinely cold.

        Memory tier first, then the store tier: its frame is the stored
        file's bytes under a ``result`` manifest
        (:func:`~repro.wire.load_frame`, never a decode and re-encode),
        and is kept in the memory tier.
        """
        frame = self._cache.get((kind, key))
        if frame is not None:
            self._cache.move_to_end((kind, key))
            if count_request:
                self.stats.memory_hits += 1
            return frame
        if not self.store.has(kind, key):
            return None
        frame = self.store.get(
            kind, key,
            read=functools.partial(
                load_frame, wrap=functools.partial(_result, key, kind)
            ),
        )
        if frame is None:
            return None  # corrupt (store warned) or just gone; recompute
        if count_request:
            self.stats.store_hits += 1
        self._cache_put(kind, key, frame)
        return frame

    def _cache_put(
        self, kind: str, key: str, frame: bytes | bytearray
    ) -> None:
        self._cache[(kind, key)] = frame
        self._cache.move_to_end((kind, key))
        while len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)

    # -- fleet ---------------------------------------------------------------
    def _pump(self) -> None:
        """Push queued keys onto the least-loaded worker with free depth."""
        while self.queue:
            picked: tuple[_Connection, _WorkerLink] | None = None
            for connection, link in self.workers.items():
                if len(link.inflight) >= link.pipeline:
                    continue
                if picked is None or len(link.inflight) < len(
                    picked[1].inflight
                ):
                    picked = (connection, link)
            if picked is None:
                return  # fleet at capacity (or empty)
            if (
                len(self.workers) > 1
                and picked[1].inflight
                and len(self.queue) <= len(self.workers)
            ):
                # Tail-aware depth: buffering a second job behind a
                # busy worker hides the dispatch round-trip while the
                # queue can still keep every worker fed, but near the
                # end of the queue it locks jobs onto workers early and
                # forfeits the pull scheduler's natural load balance —
                # with millisecond dispatch and 100ms-plus jobs the
                # lock-in costs more than the round-trip it hides.
                return
            key = self.queue.popleft()
            request = self.requests.get(key)
            if request is None or request.failing_over:
                continue  # settled (or adopted by fail-over) while queued
            connection, link = picked
            if not connection.send(
                {
                    "op": "job",
                    "key": key,
                    "attempt": request.attempt,
                    "job": request.job,
                }
            ):
                self.queue.appendleft(key)
                self._disconnect(connection)
                continue
            link.inflight.append(key)

    def _worker_settled(self, connection: _Connection, key: str) -> None:
        link = self.workers.get(connection)
        if link is not None:
            try:
                link.inflight.remove(key)
            except ValueError:
                pass

    def _disconnect(self, connection: _Connection) -> None:
        link = self.workers.pop(connection, None)
        if link is not None and link.inflight:
            self.log(
                f"serve: worker connection lost with "
                f"{len(link.inflight)} job(s) in flight — requeueing"
            )
            for key in list(link.inflight):
                self._fail_attempt(key, "worker connection lost mid-job")
        for request in self.requests.values():
            request.waiters = [
                w for w in request.waiters if w is not connection
            ]
        self._server.drop(connection)

    # -- settle --------------------------------------------------------------
    def _complete(self, key: str, payload: dict) -> None:
        request = self.requests.pop(key, None)
        if request is None:
            return
        self.store.put(request.kind, key, payload)
        self.stats.completed += 1
        result = _result(key, request.kind, payload)
        frame = None
        for waiter in request.waiters:
            if isinstance(waiter, _Connection):
                frame = frame or encode_frame(result)
                waiter.send_frame(frame)
            else:
                waiter.send(result)
        if self._cache_entries:
            self._cache_put(request.kind, key, frame or encode_frame(result))
        self.log(f"serve: completed {key[:12]}…")

    def _fail_attempt(self, key: str, error: str) -> None:
        request = self.requests.get(key)
        if request is None:
            return
        request.attempt += 1
        if request.attempt >= self.max_attempts:
            self.requests.pop(key)
            try:
                self.queue.remove(key)
            except ValueError:
                pass
            self.stats.failed += 1
            self.log(
                f"serve: {key[:12]}… failed terminally after "
                f"{request.attempt} attempt(s)"
            )
            for waiter in request.waiters:
                waiter.send(
                    {"op": "result", "key": key, "ok": False, "error": error}
                )
        else:
            self.stats.requeues += 1
            if key not in self.queue:
                self.queue.append(key)

    # -- graceful degradation ------------------------------------------------
    def _start_failover(self) -> None:
        """No worker progress within the liveness deadline: degrade.

        One queued key at a time executes on a helper thread (so the
        loop keeps answering pings, submits and store ops) and settles
        through the inbox; the next starts as soon as it does.  A worker
        fleet coming back mid-fail-over resets the deadline and picks up
        the rest of the queue.
        """
        if self._failover_busy or not self.queue:
            return
        key = self.queue.popleft()
        request = self.requests.get(key)
        if request is None:
            return
        request.failing_over = True
        self._failover_busy = True
        self.stats.failed_over += 1
        self.log(
            f"serve: no worker progress for {self.liveness:.0f}s — "
            f"executing {key[:12]}… in-process"
        )
        job_payload = request.job

        def _run() -> None:
            try:
                from repro.experiments.runner import execute_job

                payload = execute_job(decode_job(job_payload))
                outcome = (key, payload, None)
            except Exception:
                outcome = (key, None, traceback.format_exc())
            with self._inbox_lock:
                self._inbox.append(outcome)
            self._failover_busy = False

        threading.Thread(target=_run, daemon=True).start()

    def _drain_inbox(self) -> None:
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                key, payload, error = self._inbox.popleft()
            request = self.requests.get(key)
            if request is not None:
                request.failing_over = False
            if payload is not None:
                self._complete(key, payload)
            else:
                # In-process execution is the last resort — a failure
                # here is terminal regardless of the attempt budget.
                if request is not None:
                    request.attempt = self.max_attempts - 1
                self._fail_attempt(key, error or "fail-over execution failed")
