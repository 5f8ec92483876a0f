"""Worker fleets forked from a warm coordinator.

``repro serve --workers N`` and ``repro figures --jobs N`` both start
their workers here: each member is a :func:`~repro.bus.worker.run_worker`
loop forked from the process that owns the server, so it inherits every
imported module instead of paying a cold import.  A member inherits
its coordinator's OpenBLAS pool, the one ``import repro`` pinned
(``REPRO_BLAS_THREADS``), and leaves it as it is, so a fleet computes
under the same pool as a serial run.  Members die on SIGTERM and exit
on their own once the process they were forked from is gone (after the
job in hand), so a killed coordinator leaves no fleet behind.
"""

from __future__ import annotations

import os
import signal

from repro.bus.protocol import DEFAULT_POLL, BusError

__all__ = ["Fleet"]


def _member(server, poll: float, parent: int, log) -> None:
    """One fleet member: ``repro worker`` minus its import."""
    from repro.bus.worker import run_worker

    # The parent's handler stops *its* loop; a worker dies on SIGTERM.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Drop this process's copies of the server's sockets.  close() would
    # unregister them from the epoll set the parent still polls.
    server.close_forked()
    run_worker(server.address, poll=poll, parent=parent, log=log)


class Fleet:
    """*size* workers forked from this process for one server.

    The constructor only checks *size* and that this platform can fork,
    so a caller can refuse before it binds a port; :meth:`start` forks
    and :meth:`close` terminates and reaps every member.  Members keep
    the OpenBLAS pool they inherit.  *log* is each member's log line
    sink (``None`` keeps members silent).
    """

    def __init__(self, size: int, poll: float = DEFAULT_POLL, log=None) -> None:
        self.size = int(size)
        if self.size < 0:
            raise BusError(f"workers must be >= 0, got {self.size}")
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
