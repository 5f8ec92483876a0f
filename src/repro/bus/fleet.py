"""Worker fleets forked from a warm coordinator.

``repro serve --workers N`` and ``repro figures --jobs N`` both start
their workers here: each member is a :func:`~repro.bus.worker.run_worker`
loop forked from the process that owns the server, so it inherits every
imported module instead of paying a cold import.  Members cap OpenBLAS
at :data:`~repro.bus.protocol.DEFAULT_WORKER_BLAS_THREADS`, die on
SIGTERM, and exit on their own once the process they were forked from
is gone (after the job in hand), so a killed coordinator leaves no
fleet behind.
"""

from __future__ import annotations

import os
import signal

from repro.bus.protocol import (
    DEFAULT_POLL,
    DEFAULT_WORKER_BLAS_THREADS,
    BusError,
)

__all__ = ["Fleet"]


def _member(server, poll: float, parent: int, log) -> None:
    """One fleet member: ``repro worker`` minus its import."""
    from repro.bus.worker import run_worker

    # The parent's handler stops *its* loop; a worker dies on SIGTERM.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Drop this process's copies of the server's sockets.  close() would
    # unregister them from the epoll set the parent still polls.
    server.close_forked()
    run_worker(
        server.address,
        poll=poll,
        blas_threads=DEFAULT_WORKER_BLAS_THREADS,
        parent=parent,
        log=log,
    )


class Fleet:
    """*size* workers forked from this process for one server.

    The constructor only checks that this platform can fork, so a
    caller can refuse before it binds a port; :meth:`start` forks and
    :meth:`close` terminates and reaps every member.  *log* is each
    member's log line sink (``None`` keeps members silent).
    """

    def __init__(self, size: int, poll: float = DEFAULT_POLL, log=None) -> None:
        self.size = int(size)
        self.poll = poll
        self.log = log if log is not None else (lambda *_: None)
        self.members: list = []
        self._context = None
        if self.size > 0:
            import multiprocessing

            # The ``fork`` start method, named explicitly: Python 3.14's
            # Linux default (``forkserver``) and macOS's (``spawn``) would
            # start every worker with a cold import of its own.
            try:
                self._context = multiprocessing.get_context("fork")
            except ValueError:
                raise BusError(
                    "forked workers need os.fork, which this platform "
                    "lacks: run `repro figures --jobs 0` or `repro serve "
                    "--workers 0` and start each worker with `repro "
                    "worker --serve-addr HOST:PORT`"
                ) from None

    def start(self, server) -> None:
        """Fork the fleet; its members connect to *server*'s address.

        Call it before this process starts a thread: a forked child
        holds only the thread that forked it, and a lock another thread
        held stays locked in the child.
        """
        parent = os.getpid()
        for _ in range(self.size):
            # Daemonic, so an owner that exits without close() still
            # terminates its members at interpreter exit.
            member = self._context.Process(
                target=_member,
                args=(server, self.poll, parent, self.log),
                daemon=True,
            )
            member.start()
            self.members.append(member)

    def close(self) -> None:
        """Terminate every member, then join each (killing stuck ones):
        no zombie is left, and each member's rusage reaches whoever
        waits on this process."""
        for member in self.members:
            member.terminate()
        for member in self.members:
            member.join(timeout=10)
            if member.exitcode is None:  # pragma: no cover
                member.kill()
                member.join()
        self.members = []
