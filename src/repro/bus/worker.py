"""The ``repro worker`` loop: receive pushed jobs, execute, reply.

A worker is a plain process started with a serve address (``repro
worker --serve-addr HOST:PORT``), or a member of the fleet
:class:`~repro.bus.fleet.Fleet` forks: its server is a standalone
``repro serve`` endpoint or the one a ``repro figures`` coordinator runs
for ``--jobs N`` or ``--bus-addr``.  It knows
nothing about figures or grids — it holds one persistent connection,
executes :func:`~repro.experiments.runner.execute_job` on whatever the
server pushes (MuxLink attack jobs and baseline-attack jobs alike), and
ships each result back over the wire.  The server pushes one job at a
time: the next follows this worker's reply.

The server owns every recovery decision: it treats a dropped connection
as this worker's death and requeues the job it held, counts
attempts, and fails its queue over to in-process execution when no
worker makes progress.  Workers may start before or after the server;
the connect loop retries on the :class:`~repro.faults.RetryPolicy`
backoff.  A frame the worker cannot read (a codec error, an oversized
length, a ``job`` frame without a string ``key``) counts as a lost
connection: the worker hangs up and reconnects, it never dies of it.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import time
import traceback
from dataclasses import dataclass

from repro import faults
from repro.bus.protocol import DEFAULT_POLL, RetryPolicy, decode_job
from repro.errors import ReproError

__all__ = ["WorkerStats", "run_worker"]


@dataclass
class WorkerStats:
    """What one worker process did before exiting."""

    executed: int = 0
    failed: int = 0

    def summary(self) -> str:
        return f"executed={self.executed} failed={self.failed}"


def _mid_job_faults() -> None:
    """The worker-side fault sites, consulted once per accepted job.

    ``worker.slow_factor`` stalls before execution;
    ``worker.crash_after_n`` emulates SIGKILL — ``os._exit`` skips every
    ``finally`` and atexit handler, exactly like the real signal, so the
    connection drops with the job in flight for the server to requeue.
    """
    stall = faults.fire("worker.slow_factor")
    if stall is not None:
        time.sleep(stall.param)
    if faults.fire("worker.crash_after_n"):
        os._exit(137)


def run_worker(
    serve_addr: str,
    poll: float = DEFAULT_POLL,
    idle_timeout: float | None = None,
    max_jobs: int | None = None,
    retry: RetryPolicy | None = None,
    parent: int | None = None,
    log=print,
) -> WorkerStats:
    """Announce, then execute **pushed** jobs off one long connection.

    ``repro worker`` fills *serve_addr* from ``REPRO_SERVE_ADDR`` when
    its flag is absent (see :mod:`repro.settings`).  The loop runs until
    idle for *idle_timeout* seconds (``None`` runs forever, the daemon
    deployment); *max_jobs* bounds how many jobs this process executes
    (a caller running the loop on a thread stops it with that).

    Jobs run under the OpenBLAS pool ``import repro`` pinned from
    ``REPRO_BLAS_THREADS`` (default 1), the pool a serial run computes
    under; the worker never re-caps it.

    There is no request per job: the server pushes the next job once
    this worker's ``done`` or ``failed`` reply arrives (one job in
    flight per connection, see :mod:`repro.serve.server`).  A dropped
    connection (server restart, injected ``serve.accept_drop``,
    ``socket.read_timeout`` or ``socket.frame_eof``) or an unreadable
    frame reconnects on the *retry* backoff (default ``RetryPolicy()``,
    which also sets the connect and read timeouts); the server requeues
    the job this worker held.

    A forked fleet member passes its coordinator's pid as *parent*: it
    exits instead of reconnecting once that process is gone, so a
    killed coordinator leaves no orphan retrying forever.
    """
    from repro.experiments.runner import execute_job
    from repro.wire import parse_address, recv_message, send_message

    retry = RetryPolicy() if retry is None else retry
    host, port = parse_address(serve_addr)
    stats = WorkerStats()
    idle_since = time.monotonic()
    conn: socket.socket | None = None
    connect_attempt = 0
    log(f"worker[{os.getpid()}]: serve {host}:{port}")

    def hang_up() -> None:
        # The server requeues the job this connection held.
        nonlocal conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            conn = None

    def back_off() -> None:
        # Retry on the policy backoff, floored at the poll interval so a
        # zero-delay policy cannot busy-spin.
        nonlocal connect_attempt
        hang_up()
        connect_attempt += 1
        time.sleep(max(retry.delay(connect_attempt), poll))

    def drop_bad_frame(problem: str) -> None:
        # A frame this worker cannot act on: treat it like a lost
        # connection rather than die with a traceback.
        log(f"worker[{os.getpid()}]: bad frame from server ({problem})")
        back_off()

    try:
        while (
            idle_timeout is None
            or time.monotonic() - idle_since <= idle_timeout
        ):
            if conn is None:
                if parent is not None and os.getppid() != parent:
                    log(f"worker[{os.getpid()}]: coordinator {parent} is gone")
                    break
                try:
                    if faults.fire("socket.connect_refused"):
                        raise OSError(
                            errno.ECONNREFUSED,
                            "injected fault socket.connect_refused",
                        )
                    conn = socket.create_connection(
                        (host, port), timeout=retry.connect_timeout
                    )
                    conn.settimeout(retry.read_timeout)
                    send_message(conn, {"op": "hello", "role": "worker"})
                except OSError:
                    # The server may legally start after its workers.
                    back_off()
                    continue
            # Wait for readability on a short slice (so idle_timeout and
            # reconnects stay responsive), then read the *whole* frame
            # under the full read timeout — a poll-length timeout inside
            # recv_message would desync on a partially arrived frame.
            try:
                ready, _, _ = select.select([conn], [], [], poll)
                if not ready:
                    continue
                if faults.fire("socket.read_timeout"):
                    raise socket.timeout("injected fault socket.read_timeout")
                message = recv_message(conn)
            except OSError:
                message = None
            except ReproError as exc:  # undecodable or oversized frame
                drop_bad_frame(str(exc))
                continue
            if message is None:  # server went away; reconnect
                hang_up()
                time.sleep(poll)
                continue
            if not isinstance(message, dict) or message.get("op") != "job":
                continue  # an op a worker does not act on
            key = message.get("key")
            if not isinstance(key, str):
                drop_bad_frame("a job frame without a string key")
                continue
            connect_attempt = 0  # the connection delivered real work
            idle_since = time.monotonic()
            if faults.fire("socket.frame_eof"):
                hang_up()  # mid-protocol, holding the pushed job
                continue
            try:
                job = decode_job(message.get("job"))
                _mid_job_faults()
                artifact = execute_job(job)
            except Exception:
                stats.failed += 1
                reply = {
                    "op": "failed",
                    "key": key,
                    "traceback": traceback.format_exc(),
                }
            else:
                stats.executed += 1
                reply = {
                    "op": "done",
                    "key": key,
                    "kind": job.artifact_kind,
                    "result": artifact,
                }
                log(f"worker[{os.getpid()}]: completed {key[:12]}…")
            try:
                send_message(conn, reply)
            except OSError:
                hang_up()
            if max_jobs is not None and stats.executed >= max_jobs:
                break
    finally:
        hang_up()
    log(f"worker[{os.getpid()}]: done ({stats.summary()})")
    return stats
