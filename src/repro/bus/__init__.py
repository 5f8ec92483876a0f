"""Pluggable job bus: how pending attack jobs reach their workers.

See :mod:`repro.bus.protocol` for the seam contract, and the three
backends: :class:`~repro.bus.local.LocalBus` (in-process / pool),
:class:`~repro.bus.spool.SpoolBus` (shared spool directory + N
``repro worker --bus-dir`` processes; needs no server, only a shared
filesystem) and :class:`~repro.bus.socketbus.SocketBus` (an in-process
``repro serve`` endpoint that ``repro worker --serve-addr`` processes
connect to).
"""

from repro.blas import limit_blas_threads
from repro.bus.local import LocalBus
from repro.bus.protocol import (
    BUS_JOB_KIND,
    BUS_MESSAGE_KIND,
    BUS_QUARANTINE_KIND,
    DEFAULT_LEASE_BATCH,
    DEFAULT_LIVENESS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PIPELINE,
    DEFAULT_POLL,
    DEFAULT_STALE_AFTER,
    DEFAULT_WORKER_BLAS_THREADS,
    JOB_ARTIFACT_KINDS,
    BusError,
    BusStats,
    JobBus,
    QuarantinedJob,
    RetryPolicy,
    decode_job,
    encode_job,
    job_artifact_kind,
    resolve_bus,
)
from repro.bus.socketbus import SocketBus
from repro.bus.spool import SpoolBus, SpoolDir
from repro.bus.worker import WorkerStats, run_worker

__all__ = [
    "BUS_JOB_KIND",
    "BUS_MESSAGE_KIND",
    "BUS_QUARANTINE_KIND",
    "JOB_ARTIFACT_KINDS",
    "BusError",
    "job_artifact_kind",
    "BusStats",
    "DEFAULT_LEASE_BATCH",
    "DEFAULT_LIVENESS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_PIPELINE",
    "DEFAULT_POLL",
    "DEFAULT_STALE_AFTER",
    "DEFAULT_WORKER_BLAS_THREADS",
    "JobBus",
    "LocalBus",
    "QuarantinedJob",
    "RetryPolicy",
    "SocketBus",
    "SpoolBus",
    "SpoolDir",
    "WorkerStats",
    "decode_job",
    "encode_job",
    "limit_blas_threads",
    "resolve_bus",
    "run_worker",
]
