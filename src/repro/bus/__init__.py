"""Pluggable job bus: how pending attack jobs reach their workers.

See :mod:`repro.bus.protocol` for the seam contract, and the two
backends: :class:`~repro.bus.local.LocalBus` (in-process / pool) and
:class:`~repro.bus.socketbus.SocketBus` (an in-process ``repro serve``
endpoint that ``repro worker --serve-addr`` processes connect to).
"""

from repro.blas import limit_blas_threads
from repro.bus.local import LocalBus
from repro.bus.protocol import (
    BUS_MESSAGE_KIND,
    DEFAULT_LIVENESS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PIPELINE,
    DEFAULT_POLL,
    DEFAULT_WORKER_BLAS_THREADS,
    JOB_ARTIFACT_KINDS,
    BusError,
    BusStats,
    JobBus,
    RetryPolicy,
    decode_job,
    encode_job,
    job_artifact_kind,
    resolve_bus,
)
from repro.bus.socketbus import SocketBus
from repro.bus.worker import WorkerStats, run_worker

__all__ = [
    "BUS_MESSAGE_KIND",
    "JOB_ARTIFACT_KINDS",
    "BusError",
    "job_artifact_kind",
    "BusStats",
    "DEFAULT_LIVENESS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_PIPELINE",
    "DEFAULT_POLL",
    "DEFAULT_WORKER_BLAS_THREADS",
    "JobBus",
    "LocalBus",
    "RetryPolicy",
    "SocketBus",
    "WorkerStats",
    "decode_job",
    "encode_job",
    "limit_blas_threads",
    "resolve_bus",
    "run_worker",
]
