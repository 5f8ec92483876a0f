"""The ``repro worker`` loop: lease, execute, publish, repeat.

A worker is a plain process started with either a spool directory
(``repro worker --bus-dir SPOOL --store STORE``) or a serve address
(``repro worker --serve-addr HOST:PORT``).  It knows nothing
about figures or grids — it executes
:func:`~repro.experiments.runner.execute_job` on whatever the bus
hands it (MuxLink attack jobs and baseline-attack jobs alike), one job
at a time:

* **spool mode** — lease via atomic rename, heartbeat the lease file
  from a daemon thread while training runs, write the artifact to the
  shared store, drop the lease.  A job whose artifact *already* sits in
  the store is completed without recomputation (the warm-store path),
  and crash recovery is entirely passive: if this process is SIGKILLed
  mid-job the heartbeat stops and any peer reaps the lease.
* **serve mode** — hold one persistent connection to a ``repro serve``
  endpoint (standalone, or the one a ``--bus socket`` coordinator runs),
  execute the jobs it pushes, ship results back over the wire.  The
  server treats a dropped connection as this worker's death and
  requeues whatever it had in flight.  This is the only worker loop
  that speaks TCP.

Workers may start before or after the coordinator, and several may race
over one spool — the lease protocol makes the outcome identical either
way.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import faults
from repro.blas import limit_blas_threads
from repro.bus.protocol import (
    DEFAULT_LEASE_BATCH,
    DEFAULT_PIPELINE,
    DEFAULT_POLL,
    DEFAULT_STALE_AFTER,
    BusError,
    RetryPolicy,
    decode_job,
)
from repro.bus.spool import SpoolDir

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import ArtifactStore

__all__ = ["WorkerStats", "run_worker"]


@dataclass
class WorkerStats:
    """What one worker process did before exiting."""

    executed: int = 0
    skipped: int = 0  # artifact already in the store; no recompute
    failed: int = 0

    def summary(self) -> str:
        return (
            f"executed={self.executed} skipped={self.skipped} "
            f"failed={self.failed}"
        )


def _mid_job_faults() -> None:
    """The worker-side fault sites, consulted once per accepted job.

    ``worker.slow_factor`` stalls before execution (long enough for a
    lease to outlive a short ``stale_after`` in a drill);
    ``worker.crash_after_n`` emulates SIGKILL — ``os._exit`` skips every
    ``finally`` and atexit handler, exactly like the real signal, so the
    lease/connection is left dangling for peers to recover.
    """
    stall = faults.fire("worker.slow_factor")
    if stall is not None:
        time.sleep(stall.param)
    if faults.fire("worker.crash_after_n"):
        os._exit(137)


class _Heartbeat:
    """Daemon thread refreshing held spool leases while a job executes.

    With batched leasing a worker holds the executing lease *plus* the
    still-queued remainder of its batch — all of them must keep beating,
    or a reaper requeues jobs this process is about to run.
    """

    def __init__(
        self, spool: SpoolDir, keys: "str | list[str]", interval: float
    ) -> None:
        self._spool = spool
        self._keys = [keys] if isinstance(keys, str) else list(keys)
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            if faults.fire("spool.heartbeat_stall"):
                return  # injected: the heartbeat dies, the job lives on
            self._keys = [k for k in self._keys if self._spool.heartbeat(k)]
            if not self._keys:
                return  # all reaped out from under us; stop touching them


def run_worker(
    bus_dir: "str | os.PathLike | None" = None,
    serve_addr: str | None = None,
    store: "ArtifactStore | str | os.PathLike | None" = None,
    poll: float = DEFAULT_POLL,
    stale_after: float = DEFAULT_STALE_AFTER,
    max_attempts: int | None = None,
    idle_timeout: float | None = None,
    max_jobs: int | None = None,
    blas_threads: int | None = None,
    lease_batch: int = DEFAULT_LEASE_BATCH,
    pipeline: int = DEFAULT_PIPELINE,
    retry: RetryPolicy | None = None,
    log=print,
) -> WorkerStats:
    """Run the worker loop until idle for *idle_timeout* seconds.

    Exactly one of *bus_dir* (spool mode, requires *store*) or
    *serve_addr* (persistent pipelined connection to a ``repro serve``
    endpoint) must be given; ``repro worker`` fills them from
    ``REPRO_BUS_DIR`` / ``REPRO_SERVE_ADDR`` when its flags are absent,
    and *store* falls back to ``REPRO_STORE`` (see
    :mod:`repro.settings`).  ``idle_timeout=None`` runs forever (the
    daemon deployment); *max_jobs* bounds how many jobs this process
    executes (useful in tests and crash drills).

    *blas_threads* re-caps the OpenBLAS pool for this process (0
    leaves BLAS alone).  ``None`` keeps the pin ``import repro``
    applied from ``REPRO_BLAS_THREADS`` (default 1): the jobs are
    single-core, and a fleet of workers each waking a cores-wide BLAS
    spin pool oversubscribes the host and doubles per-job wall-clock.

    *lease_batch* (spool mode) claims up to that many jobs per
    directory scan, amortizing the sorted-scan overhead on small jobs.
    *pipeline* (serve mode) is the in-flight window this worker
    advertises to the server.

    *retry* is the serve-mode connect/read policy (timeouts + the
    reconnect backoff schedule); default ``RetryPolicy()``.
    """
    if (bus_dir is None) == (serve_addr is None):
        raise BusError("worker needs exactly one of bus_dir or serve_addr")
    if blas_threads is not None:
        limit_blas_threads(blas_threads)
    if bus_dir is not None:
        return _run_spool_worker(
            bus_dir,
            store,
            poll=poll,
            stale_after=stale_after,
            max_attempts=max_attempts,
            idle_timeout=idle_timeout,
            max_jobs=max_jobs,
            lease_batch=max(1, lease_batch),
            log=log,
        )
    return _run_serve_worker(
        serve_addr,
        poll=poll,
        idle_timeout=idle_timeout,
        max_jobs=max_jobs,
        pipeline=max(1, pipeline),
        retry=RetryPolicy() if retry is None else retry,
        log=log,
    )


# ---------------------------------------------------------------------------
# Spool mode
# ---------------------------------------------------------------------------
def _run_spool_worker(
    bus_dir,
    store,
    *,
    poll: float,
    stale_after: float,
    max_attempts: int | None,
    idle_timeout: float | None,
    max_jobs: int | None,
    lease_batch: int,
    log,
) -> WorkerStats:
    from repro.bus.protocol import DEFAULT_MAX_ATTEMPTS, job_artifact_kind
    from repro.experiments.runner import execute_job
    from repro.store import resolve_store

    resolved = resolve_store(store)
    if resolved is None:
        raise BusError(
            "spool worker needs the shared artifact store: pass --store "
            "or set REPRO_STORE"
        )
    spool = SpoolDir(
        bus_dir,
        stale_after=stale_after,
        max_attempts=(
            DEFAULT_MAX_ATTEMPTS if max_attempts is None else max_attempts
        ),
    )
    log(f"worker[{os.getpid()}]: spool {spool.root} store {resolved.root}")
    stats = WorkerStats()
    heartbeat_every = max(stale_after / 4.0, 0.05)
    idle_since = time.monotonic()
    done = False
    while not done:
        spool.reap_stale()
        batch = spool.lease_batch(lease_batch)
        if not batch:
            if (
                idle_timeout is not None
                and time.monotonic() - idle_since > idle_timeout
            ):
                break
            time.sleep(poll)
            continue
        idle_since = time.monotonic()
        try:
            while batch:
                key, payload = batch.pop(0)
                job_payload = payload.get("job") or {}
                artifact_kind = job_artifact_kind(
                    job_payload.get("kind", "attack")
                )
                if resolved.has(artifact_kind, key):
                    # Warm store: a peer (or a previous run) already
                    # produced this artifact — adopt, don't recompute.
                    spool.complete(key)
                    stats.skipped += 1
                    log(f"worker[{os.getpid()}]: {key[:12]}… already in store")
                else:
                    _execute_leased(
                        spool, resolved, artifact_kind, key, payload,
                        heartbeat_every, stats, log, execute_job,
                        held_keys=[k for k, _ in batch],
                    )
                if (
                    max_jobs is not None
                    and stats.executed + stats.skipped >= max_jobs
                ):
                    done = True
                    break
        finally:
            # Leases this process will not execute (max_jobs reached,
            # interrupt, a crash between jobs) go straight back to
            # pending instead of waiting out a stale-reap.
            for key, _ in batch:
                spool.release(key, "worker released unexecuted batch lease")
    log(f"worker[{os.getpid()}]: done ({stats.summary()})")
    return stats


def _execute_leased(
    spool: SpoolDir,
    store: "ArtifactStore",
    artifact_kind: str,
    key: str,
    payload: dict,
    heartbeat_every: float,
    stats: WorkerStats,
    log,
    execute_job,
    held_keys: "list[str] | None" = None,
) -> None:
    try:
        job = decode_job(payload["job"])
        with _Heartbeat(spool, [key, *(held_keys or [])], heartbeat_every):
            _mid_job_faults()
            artifact = execute_job(job)
        store.put(artifact_kind, key, artifact)
        spool.complete(key)
        stats.executed += 1
        log(f"worker[{os.getpid()}]: completed {key[:12]}…")
    except KeyboardInterrupt:
        spool.release(key, "worker interrupted")
        raise
    except Exception:
        stats.failed += 1
        quarantined = spool.fail(key, traceback.format_exc())
        verb = "quarantined" if quarantined else "requeued"
        log(f"worker[{os.getpid()}]: {verb} {key[:12]}… after failure")


# ---------------------------------------------------------------------------
# Serve mode — persistent pipelined connection to `repro serve`
# ---------------------------------------------------------------------------
def _run_serve_worker(
    serve_addr: str,
    *,
    poll: float,
    idle_timeout: float | None,
    max_jobs: int | None,
    pipeline: int,
    retry: RetryPolicy,
    log,
) -> WorkerStats:
    """Announce, then execute **pushed** jobs off one long connection.

    There is no lease round-trip: the server keeps up to *pipeline* job
    frames in flight, so the next job is already sitting in this
    socket's buffer when the current one finishes.  A dropped connection
    (server restart, injected ``serve.accept_drop``,
    ``socket.read_timeout`` or ``socket.frame_eof``) reconnects on the
    retry backoff; the server requeues whatever this worker had in
    flight.
    """
    import errno
    import select

    from repro.experiments.runner import execute_job
    from repro.wire import parse_address, recv_message, send_message

    host, port = parse_address(serve_addr)
    stats = WorkerStats()
    idle_since = time.monotonic()
    conn: socket.socket | None = None
    connect_attempt = 0
    log(
        f"worker[{os.getpid()}]: serve {host}:{port} (pipeline {pipeline})"
    )

    def hang_up() -> None:
        # The server requeues whatever this connection had in flight.
        nonlocal conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            conn = None

    try:
        while (
            idle_timeout is None
            or time.monotonic() - idle_since <= idle_timeout
        ):
            if conn is None:
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
                    send_message(
                        conn,
                        {"op": "hello", "role": "worker", "pipeline": pipeline},
                    )
                except OSError:
                    # The server may legally start after its workers:
                    # retry on the policy backoff, floored at the poll
                    # interval so a zero-delay policy cannot busy-spin.
                    hang_up()
                    connect_attempt += 1
                    time.sleep(max(retry.delay(connect_attempt), poll))
                    continue
                connect_attempt = 0
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
            if message is None:  # server went away; reconnect
                hang_up()
                time.sleep(poll)
                continue
            if message.get("op") != "job":  # pragma: no cover - bad server
                continue
            idle_since = time.monotonic()
            key = str(message["key"])
            if faults.fire("socket.frame_eof"):
                hang_up()  # mid-protocol, holding the pushed job
                continue
            try:
                job = decode_job(message["job"])
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
