"""Attack-as-a-service: the persistent serving layer over the job bus.

:class:`~repro.serve.server.AttackServer` is the ``repro serve`` loop —
a content-keyed request front end (memory LRU → artifact store →
pipelined worker fleet, with in-flight coalescing) plus the remote end
of :class:`repro.store.remote.RemoteStore`.  Clients live in
:mod:`repro.client`.

``repro serve --workers N`` forks its fleet from the warm server
process, once it listens: each worker inherits the imported package
instead of paying a cold import, and runs the same
:func:`~repro.bus.run_worker` loop as ``repro worker``.  The child closes
its copies of the server's sockets without unregistering them, because
a forked child shares the parent's epoll set (see
:meth:`repro.wire._Server.close_forked`).  Forking needs ``os.fork``;
elsewhere, and for workers on other hosts, run ``--workers 0`` and start
``repro worker --serve-addr``.
"""

from repro.serve.server import AttackServer, ServeError, ServeStats

__all__ = ["AttackServer", "ServeError", "ServeStats"]
