"""Attack-as-a-service: the one serving layer.

:class:`~repro.serve.server.AttackServer` is the ``repro serve`` loop —
a content-keyed request front end (memory LRU → artifact store →
worker fleet, one job per worker, with in-flight coalescing).  Clients
live in :mod:`repro.client` and read an artifact by key, as its
``result`` frame; no op reads or writes the server's store directly.
The frames, the job codec and the client link live in :mod:`repro.wire`;
a figure grid's coordinator embeds the server as
:class:`~repro.experiments.socketbus.SocketBus`.  Every refusal is a
:class:`~repro.errors.ServeError`.

Workers (:mod:`repro.serve.worker`) run :func:`run_worker`, as ``repro
worker`` or as members of a :class:`Fleet`: ``repro serve --workers N``
forks its fleet from the warm server process, once it listens (``repro
figures --jobs N`` does the same), so each worker inherits the imported
package instead of paying a cold import.  The child closes its copies
of the server's sockets without unregistering them, because a forked
child shares the parent's epoll set (see
:meth:`repro.wire._Server.close_forked`).  Forking needs ``os.fork``;
elsewhere, and for workers on other hosts, run ``--workers 0`` and start
``repro worker --serve-addr``.
"""

from repro.serve.server import AttackServer, ServeError, ServeStats
from repro.serve.worker import Fleet, WorkerStats, run_worker

__all__ = [
    "AttackServer",
    "Fleet",
    "ServeError",
    "ServeStats",
    "WorkerStats",
    "run_worker",
]
