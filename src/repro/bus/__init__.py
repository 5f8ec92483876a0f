"""The job bus: how pending attack jobs reach their workers.

See :mod:`repro.bus.protocol` for the wire contract.  A figure grid
runs serially in-process (``--jobs 0/1``) or on a
:class:`~repro.bus.socketbus.SocketBus`, an in-process ``repro serve``
endpoint: ``--jobs N`` forks N workers from the warm coordinator
(:class:`~repro.bus.fleet.Fleet`, which ``repro serve --workers N``
uses too), and ``--bus-addr`` lets ``repro worker --serve-addr``
processes join from outside.
"""

from repro.blas import limit_blas_threads
from repro.bus.fleet import Fleet
from repro.bus.protocol import (
    BUS_MESSAGE_KIND,
    DEFAULT_LIVENESS,
    DEFAULT_POLL,
    JOB_ARTIFACT_KINDS,
    BusError,
    RetryPolicy,
    decode_job,
    encode_job,
    job_artifact_kind,
)
from repro.bus.socketbus import SocketBus
from repro.bus.worker import WorkerStats, run_worker

__all__ = [
    "BUS_MESSAGE_KIND",
    "JOB_ARTIFACT_KINDS",
    "BusError",
    "job_artifact_kind",
    "DEFAULT_LIVENESS",
    "DEFAULT_POLL",
    "Fleet",
    "RetryPolicy",
    "SocketBus",
    "WorkerStats",
    "decode_job",
    "encode_job",
    "limit_blas_threads",
    "run_worker",
]
