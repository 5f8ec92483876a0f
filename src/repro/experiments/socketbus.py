"""The figure grid's bus: a serve endpoint embedded in the coordinator.

:class:`SocketBus` sits beside the
:class:`~repro.experiments.runner.ExperimentRunner` it serves; the
chaos drills are its only other caller.  The runner imports this module
only when it needs a bus, so a serial run loads none of the serving
layer.
"""

from __future__ import annotations

import tempfile
import time
from collections import deque
from types import SimpleNamespace
from typing import Iterator

from repro.errors import ServeError
from repro.faults.retry import RetryPolicy
from repro.jobs import Job
from repro.serve import AttackServer, Fleet
from repro.wire import DEFAULT_POLL, encode_job

__all__ = ["SocketBus"]


class SocketBus:
    """The figure grid's bus: an in-process serve endpoint with
    *workers* forked members.

    It owns an :class:`~repro.serve.AttackServer` bound to *address*.
    ``repro figures --jobs N`` forks N workers from this warm process
    (:class:`~repro.serve.Fleet`), on the first wave that has jobs; with
    ``--bus-addr`` outside ``repro worker --serve-addr ADDR`` processes
    join too.  Workers ship results back over the wire, so they need no
    shared filesystem.  There is no thread and no loopback client:
    :meth:`run` submits the grid through the server's own submit path
    and turns the server loop itself, one
    :meth:`~repro.serve.AttackServer.step` at a time.  Requeues, attempt
    budgets (*retry*) and liveness fail-over are the server's.

    One instance is reused across every ``runner.run()`` wave of a
    figure session; :meth:`close` stops the fleet and the server.
    :attr:`stats` is the server's :class:`~repro.serve.ServeStats`.
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        poll: float = DEFAULT_POLL,
        timeout: float | None = None,
        liveness: float | None = None,
        retry: RetryPolicy | None = None,
        workers: int = 0,
    ) -> None:
        # Refuse a fleet this platform cannot fork before binding a port.
        self._fleet = Fleet(workers, poll=poll)
        self.timeout = timeout
        self.liveness = float(liveness) if liveness else None
        # The runner keeps its own caches and store: the server's store
        # is private scratch, and its memory tier is off.
        self._scratch = tempfile.TemporaryDirectory(prefix="repro-socketbus-")
        self._server = AttackServer(
            address,
            self._scratch.name,
            liveness=self.liveness,
            poll=poll,
            cache_entries=0,
            retry=retry,
            log=lambda *_: None,
        )
        self.address = self._server.address
        self.stats = self._server.stats

    def run(self, jobs: list[Job]) -> Iterator[tuple[Job, dict]]:
        """Execute *jobs*; yield ``(job, artifact_payload)`` as each
        finishes.  A job that fails ``retry.max_attempts`` times raises
        :class:`~repro.errors.ServeError` with its last worker
        traceback."""
        server = self._server
        if jobs and self._fleet.size and not self._fleet.members:
            # Forked lazily: a fully cached grid forks nothing.
            self._fleet.start(server)
        # This bus waits on its own server like a client connection
        # would; the frames it is sent queue up here.
        frames: deque[dict] = deque()
        sink = SimpleNamespace(send=frames.append)
        waiting = {job.store_key: job for job in jobs}
        for key, job in waiting.items():
            server.submit(sink, key, encode_job(job), wait=True)

        failed_over_before = server.stats.failed_over
        announced = False
        last_progress = time.monotonic()
        while waiting:
            active = server.step()
            if not announced and server.stats.failed_over > failed_over_before:
                announced = True
                print(
                    "bus[socket]: no worker progress for "
                    f"{self.liveness:.0f}s — failing {len(waiting)} job(s) "
                    "over to in-process execution"
                )
            while frames:
                frame = frames.popleft()
                if frame["op"] != "result" or frame["key"] not in waiting:
                    continue
                if not frame["ok"]:
                    raise ServeError(
                        f"job {frame['key'][:12]}… failed "
                        f"{server.retry.max_attempts} time(s) over the "
                        f"socket bus; last worker traceback:\n{frame['error']}"
                    )
                yield waiting.pop(frame["key"]), frame["result"]
            now = time.monotonic()
            # A job executing anywhere counts as progress: a legitimately
            # long training run produces no frames while it computes.
            if active or server.busy:
                last_progress = now
            elif (
                self.timeout is not None
                and now - last_progress > self.timeout
            ):
                raise ServeError(
                    f"socket bus made no progress for {self.timeout:.0f}s — "
                    f"{len(waiting)} job(s) outstanding, "
                    f"{len(server.workers)} worker connection(s); "
                    f"point workers at `repro worker --serve-addr "
                    f"{self.address}`"
                )

    def close(self) -> None:
        """Stop the fleet and the server (idempotent)."""
        self._fleet.close()
        self._server.close()
        self._scratch.cleanup()
