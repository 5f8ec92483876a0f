"""``repro figures --bus socket``: the grid runs on an in-process server.

:class:`SocketBus` owns an :class:`~repro.serve.AttackServer` bound to
the bus address; workers connect to it with ``repro worker --serve-addr
ADDR`` and ship results back over the wire, so they need no shared
filesystem.  There is no thread and no loopback client:
:meth:`SocketBus.run` submits the grid through the server's own submit
path and turns the server loop itself, one
:meth:`~repro.serve.AttackServer.step` at a time.  Requeues, attempt
budgets and liveness fail-over are the server's.
"""

from __future__ import annotations

import tempfile
import time
from collections import deque
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from repro.bus.protocol import (
    DEFAULT_POLL,
    BusError,
    JobBus,
    RetryPolicy,
    encode_job,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import AttackJob

__all__ = ["SocketBus"]


class SocketBus(JobBus):
    """Coordinator-embedded serve endpoint (``repro figures --bus socket``)."""

    name = "socket"

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        poll: float = DEFAULT_POLL,
        max_attempts: int | None = None,
        timeout: float | None = None,
        liveness: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        from repro.serve import AttackServer

        super().__init__()
        retry = retry if retry is not None else RetryPolicy()
        self.max_attempts = int(
            retry.max_attempts if max_attempts is None else max_attempts
        )
        self.timeout = timeout
        self.liveness = float(liveness) if liveness else None
        # The runner keeps its own caches and store: the server's store
        # is private scratch, and its memory tier is off.
        self._scratch = tempfile.TemporaryDirectory(prefix="repro-socketbus-")
        self._server = AttackServer(
            address,
            self._scratch.name,
            max_attempts=self.max_attempts,
            liveness=self.liveness,
            poll=poll,
            cache_entries=0,
            retry=retry,
            log=lambda *_: None,
        )
        self.address = self._server.address

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict, bool]]":
        server = self._server
        t0 = time.perf_counter()
        # This bus waits on its own server like a client connection
        # would; the frames it is sent queue up here.
        frames: deque[dict] = deque()
        sink = SimpleNamespace(send=frames.append)
        waiting = {job.store_key: job for job in jobs}
        for key, job in waiting.items():
            server.submit(sink, key, encode_job(job), wait=True)
        self.stats.submitted += len(jobs)
        self.stats.submit_seconds += time.perf_counter() - t0

        failed_over_before = server.stats.failed_over
        announced = False
        last_progress = time.monotonic()
        while waiting:
            active = server.step()
            t0 = time.perf_counter()
            self._sync_stats()
            if not announced and server.stats.failed_over > failed_over_before:
                announced = True
                print(
                    f"bus[{self.name}]: no worker progress for "
                    f"{self.liveness:.0f}s — failing {len(waiting)} job(s) "
                    "over to in-process execution"
                )
            while frames:
                frame = frames.popleft()
                if frame["op"] != "result" or frame["key"] not in waiting:
                    continue
                if not frame["ok"]:
                    raise BusError(
                        f"job {frame['key'][:12]}… failed "
                        f"{self.max_attempts} time(s) over the socket bus; "
                        f"last worker traceback:\n{frame['error']}"
                    )
                job = waiting.pop(frame["key"])
                self.stats.completed += 1
                self.stats.adopt_seconds += time.perf_counter() - t0
                yield job, frame["result"], False
                t0 = time.perf_counter()
            self.stats.adopt_seconds += time.perf_counter() - t0
            now = time.monotonic()
            # A job executing anywhere counts as progress: a legitimately
            # long training run produces no frames while it computes.
            if active or server.busy:
                last_progress = now
            elif (
                self.timeout is not None
                and now - last_progress > self.timeout
            ):
                raise BusError(
                    f"socket bus made no progress for {self.timeout:.0f}s — "
                    f"{len(waiting)} job(s) outstanding, "
                    f"{len(server.workers)} worker connection(s); "
                    f"point workers at `repro worker --serve-addr "
                    f"{self.address}`"
                )

    def _sync_stats(self) -> None:
        served = self._server.stats
        self.stats.requeues = served.requeues
        self.stats.quarantined = served.failed
        self.stats.failed_over = served.failed_over

    def close(self) -> None:
        self._server.close()
        self._scratch.cleanup()
