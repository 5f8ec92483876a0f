"""``repro serve`` — the long-running attack-as-a-service front end.

One selector loop (the :mod:`repro.wire` plumbing and length-prefixed
codec frames) owns two kinds of peers on a single listening port:

* **clients** (:class:`repro.client.ServeClient`) submit content-keyed
  requests: ``{op: submit, key, job?, wait}`` where *key* is exactly the
  runner's content address (:func:`repro.jobs.job_key`) and the
  optional *job* is the :func:`~repro.wire.encode_job` payload.  A
  submit **without** a job asks by key alone (``kind``, the artifact
  kind, defaults to ``attacks``): a warm key is answered by its
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
  ``{op: hello, role: worker}`` and then receive **pushed** ``{op: job,
  ...}`` frames, one at a time: a worker connection holds at most one
  job, and the queue head goes to the first idle worker.  A loopback
  dispatch round trip costs about a millisecond against trainings of
  0.1 s and up, so a second job buffered behind a busy worker hides
  nothing, while near the end of a queue it leaves the other workers
  idle (0.35 s of a 10 s Fig. 7+8 CI run, 2 workers, 2 cores).  When a
  ``done`` arrives, the worker gets its next job *before* the finished
  artifact is written to the store and sent to its waiters, so that
  write overlaps the next training.

The same loop is the coordinator of ``repro figures --jobs N`` and
``--bus-addr``: :class:`~repro.experiments.socketbus.SocketBus` owns an
:class:`AttackServer`, submits its grid in-process and drives
:meth:`AttackServer.step` itself.

The warm path is three tiers: an in-memory LRU of **encoded** ``result``
frames (a memory hit is one ``sendall``), then the on-disk store (a
store hit reads the file once and writes a ``result`` manifest around
its array bytes, into the LRU), then scheduling.  The store tier
memoizes each key's path and frame header — the file's header and
manifest bytes and the ``result`` frame's, at most
:data:`HEADER_MEMO_BYTES` in all — so a later hit on an unchanged file
compares those bytes and reads only the array bytes; any difference
reads and checks the whole file again.  The in-process
:class:`~repro.experiments.socketbus.SocketBus` sink is the one waiter that
receives result frames decoded.  An identical request already executing
**coalesces** — K clients asking for one key train it exactly once and
all receive the result frame.  Failure semantics: a
failed attempt requeues until ``retry.max_attempts``, a dead worker
connection requeues the job it held, and once queued work has
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

from repro import jobs
from repro.errors import ServeError
from repro.faults.retry import RetryPolicy
from repro.store import ArtifactStore, codec, resolve_store
from repro.wire import (
    DEFAULT_LIVENESS,
    DEFAULT_POLL,
    _Connection,
    _Server,
    check_poll,
    decode_frame,
    decode_job,
    encode_frame,
    read_frame,
)

__all__ = ["AttackServer", "ServeError", "ServeStats"]

#: In-memory result-cache size (encoded ``result`` frames).
DEFAULT_CACHE_ENTRIES = 256
#: Bytes of store-tier frame headers the server memoizes: a c1908
#: attack's stored header and manifest plus its ``result`` frame's are
#: about 3 KB, so about 300 keys.
HEADER_MEMO_BYTES = 1 << 20


def _header_cost(header: codec.FrameHeader) -> int:
    return len(header.stored) + len(header.head)


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
    kind = job.get("kind") if isinstance(job, dict) else None
    return isinstance(kind, str) and kind in jobs.KINDS


#: Fields each op must carry, and the check each must pass.
_REQUIRED = {
    "submit": {"key": _is_name},
    "wait": {"key": _is_name},
    "done": {"key": _is_name, "result": lambda r: isinstance(r, dict)},
    "failed": {"key": _is_name},
}
#: Optional fields, checked on any op that carries them.
_OPTIONAL = {"job": _is_job, "kind": _is_name}


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
    an in-process sink (:class:`~repro.experiments.socketbus.SocketBus`)."""
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


class AttackServer:
    """The ``repro serve`` loop: warm cache, store, coalescing, fleet."""

    def __init__(
        self,
        address: str,
        store: "ArtifactStore | str | os.PathLike",
        liveness: float | None = DEFAULT_LIVENESS,
        poll: float = DEFAULT_POLL,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        retry: RetryPolicy | None = None,
        log=print,
    ) -> None:
        if cache_entries < 0:
            raise ServeError(
                f"cache entries must be >= 0, got {cache_entries}"
            )
        self.poll = check_poll(poll)
        resolved = resolve_store(store)
        if resolved is None:
            raise ServeError(
                "repro serve needs an artifact store directory "
                "(--store or REPRO_STORE)"
            )
        self.store = resolved
        self.retry = retry if retry is not None else RetryPolicy()
        self._server = _Server(
            address, read_timeout=self.retry.read_timeout
        )
        self.address = self._server.address
        self.liveness = float(liveness) if liveness else None
        self.log = log
        self.stats = ServeStats()
        self.requests: dict[str, _Request] = {}
        self.queue: deque[str] = deque()  # keys awaiting dispatch
        # Worker connections -> the one key each holds (None: idle).
        self.workers: dict[_Connection, str | None] = {}
        self._cache: OrderedDict[tuple[str, str], bytes | bytearray] = (
            OrderedDict()
        )
        self._cache_entries = int(cache_entries)
        # Store-tier (path, frame header) by (kind, key), least recent first.
        self._headers: OrderedDict[
            tuple[str, str], tuple[os.PathLike, codec.FrameHeader]
        ] = OrderedDict()
        self._header_bytes = 0
        self._inbox: deque = deque()  # fail-over thread -> loop
        self._inbox_lock = threading.Lock()
        self._failover_busy = False
        self._last_progress = time.monotonic()  # the liveness clock
        self._stop = False

    # -- the loop ------------------------------------------------------------
    def serve_forever(self) -> ServeStats:
        """Run until a ``shutdown`` op or :meth:`stop` (``repro serve``
        calls it on SIGTERM) ends the loop."""
        try:
            while not self._stop:
                self.step()
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return self.stats

    def step(self) -> bool:
        """One loop turn: read frames, dispatch, settle, check liveness.

        Returns whether any peer sent a frame (or hung up) this turn.
        The liveness clock only runs while queued work waits on an idle
        fleet; once it expires, the queue fails over job after job
        until a worker says ``hello``, ``done`` or ``failed``.
        """
        events = self._server.poll(self.poll)
        settled: list[tuple[str, dict]] = []  # (key, payload) of ``done``s
        for connection, messages in events:
            if messages is None:
                self._disconnect(connection)
                continue
            for message in messages:
                if _malformed(message):
                    self._disconnect(connection)
                    break
                self._handle(connection, message, settled)
        self._drain_inbox()
        # Freed workers get their next jobs first; the store writes and
        # result fan-out of the finished ones then overlap that training.
        # Dispatch waits until every frame of this turn is handled: a
        # failed send drops its connection.
        self._pump()
        for key, payload in settled:
            self._complete(key, payload)
        now = time.monotonic()
        working = any(key is not None for key in self.workers.values())
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
            key is not None for key in self.workers.values()
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
    def _handle(
        self, connection: _Connection, message: dict, settled: list
    ) -> None:
        """Act on one frame; a ``done`` joins *settled* for :meth:`step`
        to complete after the next dispatch."""
        op = message["op"]
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
            self._last_progress = time.monotonic()  # the fleet is alive
            self.workers[connection] = None
            self.log(f"serve: worker connected ({len(self.workers)} total)")
        elif op in ("done", "failed"):
            key = message["key"]
            if not self._release(connection, key):
                return  # only the worker holding a job settles it
            self._last_progress = time.monotonic()  # the fleet is alive
            if op == "done":
                settled.append((key, message["result"]))
            else:
                self._fail_attempt(key, str(message.get("traceback", "")))
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

        *waiter* is anything with a ``send(frame)`` method — a client
        connection, or :class:`~repro.experiments.socketbus.SocketBus`'s
        in-process sink.  It gets the ``accepted`` frame now and, with
        *wait*, the ``result`` frame once the artifact exists.
        """
        kind = jobs.KINDS[job["kind"]].store_kind
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
        # run fails now with the decoder's text, never queued or retried.
        try:
            decode_job(job)
        except ServeError as exc:
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

    # -- warm tiers ----------------------------------------------------------
    def _lookup(
        self, kind: str, key: str, count_request: bool = True
    ) -> bytes | bytearray | None:
        """A warm key's encoded ``result`` frame; ``None`` = genuinely cold.

        Memory tier first, then the store tier: its frame is the stored
        file's bytes under a ``result`` manifest (never a decode and
        re-encode, see :meth:`_read_frame`), and is kept in the memory
        tier.  The file is opened once; a missing one is cold and counts
        nowhere.
        """
        frame = self._cache.get((kind, key))
        if frame is not None:
            self._cache.move_to_end((kind, key))
            if count_request:
                self.stats.memory_hits += 1
            return frame
        memo = self._headers.pop((kind, key), None)
        if memo is None:
            path, header = self.store.path_for(kind, key), None
        else:
            path, header = memo
            self._header_bytes -= _header_cost(header)
        read = functools.partial(self._read_frame, key, header)
        try:
            handle = open(path, "rb", buffering=0)
        except FileNotFoundError:
            return None
        except OSError:  # unreadable: the store's own open fails, a warned miss
            frame = self.store.get(kind, key, read=read, path=path)
        else:
            with handle:
                frame = self.store.get(
                    kind, key, read=read, path=path, handle=handle
                )
        if frame is None:
            return None  # corrupt (store warned) or just gone; recompute
        if count_request:
            self.stats.store_hits += 1
        self._cache_put(kind, key, frame)
        return frame

    def _read_frame(
        self,
        key: str,
        header: codec.FrameHeader | None,
        handle,
        path,
        kind: str,
    ) -> bytearray:
        """The store tier's file reader: the ``result`` frame of *path*
        open as *handle*, reading only its array bytes while its header
        and manifest equal the memoized *header*'s.

        Equal bytes at an equal size pass every check the first read
        made (:func:`~repro.store.codec.reread_wrapped`); no *header*, a
        mismatch or a short read reads and checks the whole file again
        (:func:`~repro.wire.read_frame`).  Either way the header is
        memoized, with the path, as the most recent entry.
        """
        frame = None
        if header is not None:
            frame = codec.reread_wrapped(handle, path, header)
        if frame is None:
            wrap = functools.partial(_result, key, kind)
            frame, header = read_frame(handle, path, kind, wrap)
        cost = _header_cost(header)
        if cost <= HEADER_MEMO_BYTES:
            self._headers[(kind, key)] = (path, header)
            self._header_bytes += cost
            while self._header_bytes > HEADER_MEMO_BYTES:
                _, (_, old) = self._headers.popitem(last=False)
                self._header_bytes -= _header_cost(old)
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
        """Push queued keys onto idle workers, one job per worker."""
        idle = [c for c, key in self.workers.items() if key is None]
        while self.queue and idle:
            key = self.queue.popleft()
            request = self.requests.get(key)
            if request is None or request.failing_over:
                continue  # settled (or adopted by fail-over) while queued
            connection = idle.pop(0)
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
            self.workers[connection] = key

    def _release(self, connection: _Connection, key: str) -> bool:
        """Free *connection* of *key*, the job it holds.

        ``False`` for a peer that never said ``hello`` or does not hold
        *key*: its ``done`` or ``failed`` frame is ignored.
        """
        if self.workers.get(connection) != key:
            return False
        self.workers[connection] = None
        return True

    def _disconnect(self, connection: _Connection) -> None:
        key = self.workers.pop(connection, None)
        if key is not None:
            self.log(
                f"serve: worker connection lost with {key[:12]}… in "
                f"flight — requeueing"
            )
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
        if request.attempt >= self.retry.max_attempts:
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
        loop keeps answering pings and submits) and settles
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
                payload = jobs.execute_job(decode_job(job_payload))
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
                    request.attempt = self.retry.max_attempts - 1
                self._fail_attempt(key, error or "fail-over execution failed")
